//! Telemetry spine, end to end: the snapshot JSON a fabric emits must
//! be a pure function of the seed and the schedule, and the registry
//! must agree with every `stats()` view assembled from it.

use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::agent::AppAction;
use dumbnet::host::HostAgent;
use dumbnet::packet::Packet;
use dumbnet::sim::{Engine, LinkParams, NodeAddr, ShardedWorld, WireId, World};
use dumbnet::switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet::telemetry::NodeKind;
use dumbnet::topology::generators;
use dumbnet::types::{HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};

/// Boots the paper testbed with a small ping workload and runs it to a
/// fixed horizon; returns the fabric for inspection.
fn booted_fabric() -> Fabric {
    let g = generators::testbed();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id == HostId(1) {
            cfg.actions = vec![AppAction::PingSeries {
                at: SimDuration::from_millis(20),
                dst: MacAddr::for_host(26),
                count: 5,
                interval: SimDuration::from_millis(1),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .expect("fabric builds");
    fabric.run_until(SimTime::ZERO + SimDuration::from_millis(300));
    fabric
}

#[test]
fn same_seed_snapshot_json_is_byte_identical() {
    let a = booted_fabric().telemetry_snapshot().to_json();
    let b = booted_fabric().telemetry_snapshot().to_json();
    assert!(!a.is_empty(), "snapshot JSON must not be empty");
    assert_eq!(a, b, "same-seed runs must serialize identical telemetry");
}

#[test]
fn snapshot_agrees_with_stats_views() {
    let mut fabric = booted_fabric();
    let snap = fabric.telemetry_snapshot();

    // Engine totals: the WorldStats view is assembled from the same
    // handles the snapshot reads.
    let world = fabric.world.stats();
    assert_eq!(
        snap.counter(NodeKind::World, 0, "packets_delivered"),
        world.packets_delivered
    );
    assert_eq!(snap.counter(NodeKind::World, 0, "events"), world.events);

    // Host agent: scalar counters and the RTT histogram.
    let pinger = fabric.host(HostId(1)).expect("host 1 exists");
    let stats = pinger.stats();
    assert_eq!(
        snap.counter(NodeKind::Host, 1, "path_requests"),
        stats.path_requests
    );
    assert!(stats.rtts.len() == 5, "ping series must complete");
    match snap.get(NodeKind::Host, 1, "rtt_ns") {
        Some(dumbnet::telemetry::MetricValue::Histogram(h)) => {
            assert_eq!(h.count, stats.rtts.len() as u64);
        }
        other => panic!("rtt_ns must be a histogram, got {other:?}"),
    }

    // Controller: the leader gauge mirrors the stats view.
    let ctrl = fabric.controller(HostId(0)).expect("controller exists");
    assert_eq!(
        snap.gauge(NodeKind::Controller, 0, "is_leader"),
        i64::from(ctrl.stats().is_leader)
    );

    // Aggregation across hosts matches summing the views by hand.
    let by_hand: u64 = (0..fabric.topology.host_count() as u64)
        .filter_map(|h| fabric.host(HostId(h)))
        .map(|a| a.stats().path_requests)
        .sum();
    assert_eq!(snap.sum_counters(NodeKind::Host, "path_requests"), by_hand);
}

/// A packet storm down a chain of eight dumb switches, one per cell of
/// the engine; the last switch's egress port is unwired, so every packet
/// also ends in a counted drop. Returns every counter the engine keeps:
/// merged stats, each wire's stats and the telemetry snapshot JSON.
fn chain_storm<E: Engine>(mut w: E) -> String {
    const SWITCHES: u8 = 8;
    const PACKETS: u64 = 10_000;
    let port = |n| PortNo::new(n).expect("valid port");
    let cells = u32::try_from(w.cell_count()).expect("cell count fits");
    let switches: Vec<NodeAddr> = (0..SWITCHES)
        .map(|i| {
            let sw = DumbSwitch::new(SwitchId(u64::from(i)), 4, DumbSwitchConfig::default());
            w.add_node_in_cell(Box::new(sw), u32::from(i) * cells / u32::from(SWITCHES))
        })
        .collect();
    let wires: Vec<WireId> = switches
        .windows(2)
        .map(|pair| {
            w.wire(pair[0], port(2), pair[1], port(1), LinkParams::ten_gig())
                .expect("chain wires")
        })
        .collect();
    let path = Path::from_ports(std::iter::repeat_n(2, usize::from(SWITCHES))).expect("path");
    for seq in 0..PACKETS {
        let pkt = Packet::data(
            MacAddr::for_host(1),
            MacAddr::for_host(0),
            path.clone(),
            seq % 16,
            seq,
            900,
        );
        let at = SimTime::ZERO + SimDuration::from_micros(seq);
        w.inject(at, switches[0], port(1), pkt);
    }
    w.run_to_idle(u64::MAX);
    let stats = w.stats();
    assert_eq!(stats.packets_delivered, PACKETS * u64::from(SWITCHES));
    assert_eq!(stats.drops_down, PACKETS);
    let mut out = format!("{stats:?}\n");
    for wire in wires {
        out.push_str(&format!("{:?}\n", w.link_stats(wire)));
    }
    out.push_str(&w.telemetry_snapshot().to_json());
    out
}

/// The single-writer contract of the telemetry handles, under real
/// threads: every switch and every wire direction of the storm is
/// written by the one worker that owns its cell, and read only after
/// the workers are joined. A handle written from two threads would lose
/// updates, and the totals would fall short of the single world's.
#[test]
fn threaded_shards_lose_no_counter_updates() {
    let want = chain_storm(World::new(11));
    let mut threaded = ShardedWorld::new(11, 8);
    threaded.set_parallel(Some(true));
    assert_eq!(want, chain_storm(threaded));
}
