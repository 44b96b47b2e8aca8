//! Regression tests for the host-side coalescing writer (DESIGN.md §9).
//!
//! The central bug these pin: before monotone-epoch acceptance, a stale
//! patch arriving *after* a newer one (redundant flood rounds
//! plus jitter reorder) was applied anyway and clobbered the newer
//! table — a link the controller had already reported healthy stayed
//! marked down on the host forever. The tests drive the exact reorder
//! through `World::inject` and assert the newer table survives.
//!
//! Only the cases that need the wire live here: what an accepted or
//! refused batch does to the two-level cache, the arrival series and
//! the counters, and that a hello or a path reply leaves the table
//! version to the patches. The acceptance rules themselves are pinned
//! effect by effect in `failure_cores.rs` — the duplicate flood round by
//! `acceptor_drops_stale_reorders_and_replayed_entries`, the superseded
//! partial and its straggler by
//! `acceptor_abandons_superseded_partials_and_their_stragglers`.

use dumbnet_host::agent::{HostAgent, HostAgentConfig};
use dumbnet_packet::control::{LinkEvent, PatchBatch, PatchEntry, TopoDelta};
use dumbnet_packet::{ControlMessage, Packet};
use dumbnet_sim::{Engine, World};
use dumbnet_topology::{generators, pathgraph, PathGraphParams};
use dumbnet_types::{HostId, MacAddr, Path, PortId, PortNo, SimDuration, SimTime, SwitchId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

fn port(sw: u64, p: u8) -> PortId {
    PortId::new(SwitchId(sw), PortNo::new(p).expect("valid port"))
}

fn down(a: u64, b: u64) -> TopoDelta {
    TopoDelta {
        down: vec![(SwitchId(a), SwitchId(b))],
        ..TopoDelta::default()
    }
}

fn up(a: u64, b: u64) -> TopoDelta {
    TopoDelta {
        up: vec![(port(a, 2), port(b, 3))],
        ..TopoDelta::default()
    }
}

/// One complete single-entry flood round at term 1.
fn patch(version: u64, delta: TopoDelta) -> ControlMessage {
    ControlMessage::TopologyPatchBatch(PatchBatch::singleton(version, delta, 1))
}

/// One agent in a bare world; patches arrive via `World::inject` at the
/// times the test dictates, exactly like jitter-delayed wire arrivals.
struct Rig {
    world: World,
    addr: dumbnet_sim::NodeAddr,
}

impl Rig {
    fn new() -> Rig {
        let mut world = World::new(11);
        let addr = world.add_node(Box::new(HostAgent::new(
            HostId(1),
            HostAgentConfig::default(),
        )));
        Rig { world, addr }
    }

    fn inject(&mut self, at: SimTime, msg: ControlMessage) {
        let me = MacAddr::for_host(1);
        let ctrl = MacAddr::for_host(0);
        self.world.inject(
            at,
            self.addr,
            PortNo::new(1).expect("valid port"),
            Packet::control(me, ctrl, Path::empty(), msg),
        );
    }

    fn agent(&self) -> &HostAgent {
        self.world.node::<HostAgent>(self.addr).expect("agent")
    }

    fn agent_mut(&mut self) -> &mut HostAgent {
        self.world.node_mut::<HostAgent>(self.addr).expect("agent")
    }
}

#[test]
fn stale_patch_after_newer_is_dropped() {
    // A link flaps: down at version 2, back up at version 3. The host
    // already marked the edge down from the stage-1 notification. The
    // controller's two patches arrive REORDERED: v3 (up) first, then the
    // jitter-delayed v2 (down).
    let mut rig = Rig::new();
    rig.agent_mut()
        .topocache
        .mark_down(SwitchId(4), SwitchId(7));
    rig.inject(at_us(100), patch(3, up(4, 7)));
    rig.inject(at_us(200), patch(2, down(4, 7)));
    rig.world.run_until(at_us(500));
    let agent = rig.agent();
    // Before the fix the stale v2 re-marked the edge down and bumped
    // nothing; the host would avoid a healthy link forever.
    assert!(
        agent.topocache.down_edges().is_empty(),
        "stale patch clobbered the newer table: {:?}",
        agent.topocache.down_edges()
    );
    assert_eq!(agent.patches.version(), 3);
    let stats = agent.stats();
    assert_eq!(stats.stale_patch_dropped, 1, "stale drop not counted");
    assert_eq!(stats.patch_batches_applied, 1);
    // Only the applied version appears in the arrival series.
    assert_eq!(
        stats
            .patch_arrivals
            .iter()
            .map(|&(v, _)| v)
            .collect::<Vec<_>>(),
        vec![3]
    );
}

#[test]
fn multi_segment_batch_applies_atomically() {
    // A two-segment epoch: nothing may be visible until both segments
    // have arrived, then the whole epoch applies in one step.
    let mut rig = Rig::new();
    let seg = |seg_ix: u16, entries: Vec<PatchEntry>| {
        ControlMessage::TopologyPatchBatch(PatchBatch {
            epoch: 2,
            term: 1,
            seg: seg_ix,
            segs: 2,
            entries,
        })
    };
    rig.inject(
        at_us(100),
        seg(
            0,
            vec![PatchEntry {
                version: 1,
                delta: down(1, 2),
            }],
        ),
    );
    rig.world.run_until(at_us(150));
    {
        let agent = rig.agent();
        assert!(
            agent.topocache.down_edges().is_empty(),
            "half a batch became visible"
        );
        assert_eq!(agent.patches.version(), 0);
        assert_eq!(agent.stats().patch_batches_applied, 0);
    }
    rig.inject(
        at_us(200),
        seg(
            1,
            vec![PatchEntry {
                version: 2,
                delta: down(3, 4),
            }],
        ),
    );
    rig.world.run_until(at_us(500));
    let agent = rig.agent();
    assert_eq!(agent.topocache.down_edges().len(), 2);
    assert_eq!(agent.patches.version(), 2);
    assert_eq!(agent.stats().patch_batches_applied, 1);
}

#[test]
fn batch_from_fenced_stale_leader_is_dropped() {
    // Term fencing applies to batches exactly as to every other
    // controller update: a batch stamped with a lower term than the
    // highest seen is from a fenced leader and must not touch the table.
    let mut rig = Rig::new();
    rig.inject(
        at_us(100),
        ControlMessage::TopologyPatchBatch(PatchBatch::singleton(2, down(1, 2), 5)),
    );
    rig.inject(
        at_us(200),
        ControlMessage::TopologyPatchBatch(PatchBatch::singleton(9, down(3, 4), 3)),
    );
    rig.world.run_until(at_us(500));
    let agent = rig.agent();
    assert_eq!(agent.patches.version(), 2);
    assert_eq!(agent.topocache.down_edges().len(), 1);
    assert_eq!(agent.stats().stale_ctrl_updates, 1);
}

#[test]
fn entries_at_or_below_table_version_are_skipped_within_a_batch() {
    // A batch may replay versions the host already holds (a resync after
    // partial delivery). Re-applying an old "up" entry must not
    // resurrect a link a later, already-applied version took down.
    let mut rig = Rig::new();
    // The host is at version 2: edge (4,7) went down at v2.
    rig.inject(at_us(100), patch(2, down(4, 7)));
    // Epoch-4 batch replays v1 (edge up — stale) plus v3, v4.
    rig.inject(
        at_us(200),
        ControlMessage::TopologyPatchBatch(PatchBatch {
            epoch: 4,
            term: 1,
            seg: 0,
            segs: 1,
            entries: vec![
                PatchEntry {
                    version: 1,
                    delta: up(4, 7),
                },
                PatchEntry {
                    version: 3,
                    delta: down(8, 9),
                },
                PatchEntry {
                    version: 4,
                    delta: down(10, 11),
                },
            ],
        }),
    );
    rig.world.run_until(at_us(500));
    let agent = rig.agent();
    assert_eq!(agent.patches.version(), 4);
    assert!(
        agent
            .topocache
            .down_edges()
            .contains(&(SwitchId(4), SwitchId(7))),
        "replayed stale entry resurrected a down link"
    );
    assert_eq!(agent.topocache.down_edges().len(), 3);
    // Only v3 and v4 were genuinely new.
    assert_eq!(
        agent
            .stats()
            .patch_arrivals
            .iter()
            .map(|&(v, _)| v)
            .collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

/// A leader hello from host 0 at term 1, claiming topology `version`.
fn hello(version: u64) -> ControlMessage {
    ControlMessage::ControllerHello {
        controller: MacAddr::for_host(0),
        path_to_controller: Path::from_ports([1]).expect("valid path"),
        topo_version: version,
        standby: false,
        term: 1,
    }
}

/// Asserts the agent applied exactly `patch(3, down(4, 7))`.
fn applied_the_flood_of_3(agent: &HostAgent) {
    let stats = agent.stats();
    assert_eq!(
        (stats.patch_batches_applied, stats.stale_patch_dropped),
        (1, 0)
    );
    assert_eq!(agent.patches.version(), 3);
    assert!(agent
        .topocache
        .down_edges()
        .contains(&(SwitchId(4), SwitchId(7))));
}

#[test]
fn a_hello_does_not_move_the_table_version() {
    // The hello vouches for version 3, but the host never applied the
    // deltas up to it: the patch that carries them must still apply.
    let mut rig = Rig::new();
    rig.inject(at_us(100), hello(3));
    rig.inject(at_us(200), patch(3, down(4, 7)));
    rig.world.run_until(at_us(500));
    applied_the_flood_of_3(rig.agent());
}

#[test]
fn a_path_reply_does_not_move_the_table_version() {
    // A ping's pong misses the PathTable and asks the controller; the
    // reply is built at version 3, between the commit of 3 and its
    // flood. The flood must still apply.
    let mut rig = Rig::new();
    rig.inject(at_us(100), hello(1));
    let ping = ControlMessage::Ping {
        seq: 1,
        sent_at: at_us(150),
    };
    rig.inject(at_us(150), ping);
    rig.world.run_until(at_us(180));
    assert_eq!(rig.agent().stats().path_requests, 1);
    let g = generators::testbed();
    let mut rng = StdRng::seed_from_u64(7);
    let params = PathGraphParams::default();
    let graph = pathgraph::build(&g.topology, HostId(1), HostId(0), &params, &mut rng);
    let reply = ControlMessage::PathReply {
        request_id: 1,
        graph: Some(Box::new(graph.expect("graph"))),
        topo_version: 3,
    };
    rig.inject(at_us(200), reply);
    rig.inject(at_us(300), patch(3, down(4, 7)));
    rig.world.run_until(at_us(500));
    applied_the_flood_of_3(rig.agent());
}

#[test]
fn link_event_and_patch_counters_registered() {
    // The new counters surface through the stats() view (telemetry
    // registration itself is exercised by the fabric tests).
    let mut rig = Rig::new();
    let ev = LinkEvent {
        switch: SwitchId(1),
        port: PortNo::new(2).expect("valid port"),
        up: false,
        seq: 1,
    };
    rig.inject(
        at_us(50),
        ControlMessage::LinkNotification { event: ev, ttl: 0 },
    );
    rig.world.run_until(at_us(500));
    let stats = rig.agent().stats();
    assert_eq!(stats.stale_patch_dropped, 0);
    assert_eq!(stats.patch_batches_applied, 0);
    assert_eq!(stats.notification_arrivals.len(), 1);
}
