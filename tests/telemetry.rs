//! Telemetry spine, end to end: the snapshot JSON a fabric emits must
//! be a pure function of the seed and the schedule, and the registry
//! must agree with every `stats()` view assembled from it.

use std::sync::Arc;

use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::agent::AppAction;
use dumbnet::host::HostAgent;
use dumbnet::packet::Packet;
use dumbnet::sim::{Engine, LinkParams, NodeAddr, ShardedWorld, WireId, World};
use dumbnet::switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet::telemetry::{
    counter_block, Counter, Doubling, Gauge, Histogram, Level, MetricValue, NodeKind, Telemetry,
};
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

    // Engine totals: the WorldStats view is filled from the same
    // cells the snapshot reads.
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
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, stats.rtts.len() as u64);
        }
        other => panic!("rtt_ns must be a histogram, got {other:?}"),
    }

    // Controller: one block counter, and the leader gauge.
    let ctrl = fabric.controller(HostId(0)).expect("controller exists");
    assert!(ctrl.stats().path_requests > 0, "the ping needed a path");
    assert_eq!(
        snap.counter(NodeKind::Controller, 0, "path_requests"),
        ctrl.stats().path_requests
    );
    assert_eq!(
        snap.gauge(NodeKind::Controller, 0, "is_leader"),
        i64::from(ctrl.stats().is_leader)
    );

    // Link and switch: the pinger's access wire and the leaf behind it.
    let wire = fabric.access_wire(HostId(1)).expect("host 1 is wired");
    let link = fabric.world.link_stats(wire);
    assert!(link.sent > 0, "the pinger's wire carried its pings");
    assert_eq!(
        snap.counter(NodeKind::Link, wire.raw() as u64, "sent"),
        link.sent
    );
    let leaf = fabric
        .topology
        .host(HostId(1))
        .expect("host 1")
        .attached
        .switch;
    let forwarded = fabric.switch(leaf).expect("leaf exists").stats().forwarded;
    assert!(forwarded > 0, "the leaf forwarded the pings");
    assert_eq!(
        snap.counter(NodeKind::Switch, leaf.get(), "forwarded"),
        forwarded
    );

    // Aggregation across hosts matches summing the views by hand.
    let by_hand: u64 = (0..fabric.topology.host_count() as u64)
        .filter_map(|h| fabric.host(HostId(h)))
        .map(|a| a.stats().path_requests)
        .sum();
    assert_eq!(snap.sum_counters(NodeKind::Host, "path_requests"), by_hand);
}

/// Every metric the fabric registers, by node kind and type. A renamed,
/// dropped, added or retyped metric fails here by name, not as a moved
/// checksum somewhere else.
const METRICS: &[(NodeKind, &str, &[&str])] = &[
    (
        NodeKind::World,
        "counter",
        &[
            "events",
            "packets_sent",
            "packets_delivered",
            "drops_down",
            "drops_queue",
            "drops_loss",
            "drops_corrupt",
            "drops_crashed",
            "ecn_marked",
        ],
    ),
    (
        NodeKind::Link,
        "counter",
        &[
            "sent",
            "delivered",
            "drops_down",
            "drops_queue",
            "drops_loss",
            "drops_crashed",
            "ecn_marked",
        ],
    ),
    (
        NodeKind::Switch,
        "counter",
        &[
            "forwarded",
            "dropped_exhausted",
            "dropped_malformed",
            "ref_divergence",
            "id_replies",
            "alarms_sent",
            "alarms_suppressed",
            "notifications_relayed",
            "tx_packets",
            "tx_bytes",
        ],
    ),
    (
        NodeKind::Host,
        "counter",
        &[
            "path_requests",
            "queued_on_miss",
            "ingress_drops",
            "floods_sent",
            "floods_rebroadcast",
            "ecn_echoes",
            "stale_ctrl_updates",
            "stale_patch_dropped",
            "patch_batches_applied",
            "probes_sent",
            "probe_losses",
            "link_suspects_sent",
            "gray_failovers",
            "coalesce_aborted",
            "delivered_packets",
            "delivered_bytes",
        ],
    ),
    (
        NodeKind::Host,
        "histogram",
        &["rtt_ns", "patch_batch_entries"],
    ),
    (
        NodeKind::Controller,
        "counter",
        &[
            "probes_sent",
            "path_requests",
            "patches_sent",
            "patch_floods",
            "link_events",
            "repl_resends",
            "repl_sync_requests",
            "restarts",
            "elections_started",
            "step_downs",
            "dropped_malformed",
            "link_suspects_rx",
            "quarantines",
            "unquarantines",
            "route_cache_hits",
            "route_cache_misses",
        ],
    ),
    (NodeKind::Controller, "gauge", &["is_leader", "term"]),
    (
        NodeKind::Controller,
        "histogram",
        &["probe_burst_size", "patch_batch_entries"],
    ),
];

#[test]
fn snapshot_holds_exactly_the_expected_metric_names() {
    use std::collections::{BTreeMap, BTreeSet};
    type Names<'a> = BTreeSet<(&'a str, &'a str)>;
    let mut want: BTreeMap<NodeKind, Names> = BTreeMap::new();
    for &(kind, ty, names) in METRICS {
        let of_kind = want.entry(kind).or_default();
        of_kind.extend(names.iter().map(|&name| (name, ty)));
    }
    // Every node of a kind must carry the kind's whole list, so collect
    // `(name, type)` per node and compare each node with the table.
    let snap = booted_fabric().telemetry_snapshot();
    let mut got: BTreeMap<(NodeKind, u64), Names> = BTreeMap::new();
    for (key, value) in &snap.metrics {
        let ty = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let of_node = got.entry((key.kind, key.node)).or_default();
        of_node.insert((key.name, ty));
    }
    for kind in want.keys() {
        assert!(
            got.keys().any(|(k, _)| k == kind),
            "the testbed registered no {kind} node"
        );
    }
    for ((kind, node), got) in &got {
        let want = want.get(kind).cloned().unwrap_or_default();
        let missing: Vec<_> = want.difference(got).collect();
        let unexpected: Vec<_> = got.difference(&want).collect();
        assert!(
            missing.is_empty() && unexpected.is_empty(),
            "{kind}/{node}: missing {missing:?}, not in the table {unexpected:?}"
        );
    }
}

counter_block! {
    /// A node's block with one metric of each kind, the way a host or a
    /// controller holds them.
    struct Mixed { sent, leader: Level, rtt_ns: Doubling<1_024, 16>, batch: Doubling<1, 8> }
}

/// A gauge and histograms held in a block snapshot exactly as the same
/// metrics registered as one-off handles: equal values under the same
/// keys, in the same order, and byte-identical JSON.
#[test]
fn block_held_gauges_and_histograms_snapshot_like_handles() {
    let rtts = [0, 1_024, 1_025, 5_000, 40_000_000, u64::MAX];
    let blocks = Telemetry::new(0);
    let block = Arc::<Mixed>::default();
    blocks.register_block(NodeKind::Controller, 4, block.clone());
    block.sent.add(5);
    block.leader.set(-1);
    rtts.iter().for_each(|&v| block.rtt_ns.observe(v));
    block.batch.observe(3);

    // The oracle: the same names and values, one handle each.
    let handles = Telemetry::new(0);
    let (sent, leader) = (Counter::new(), Gauge::new());
    let (rtt_ns, batch) = (Histogram::doubling(1_024, 16), Histogram::doubling(1, 8));
    sent.add(5);
    leader.set(-1);
    rtts.iter().for_each(|&v| rtt_ns.observe(v));
    batch.observe(3);
    let node = (NodeKind::Controller, 4);
    handles.register_counter(node.0, node.1, "sent", &sent);
    handles.register_gauge(node.0, node.1, "leader", &leader);
    handles.register_histogram(node.0, node.1, "rtt_ns", &rtt_ns);
    handles.register_histogram(node.0, node.1, "batch", &batch);

    let (got, want) = (blocks.snapshot(), handles.snapshot());
    assert_eq!(got, want);
    assert!(
        got.metrics.iter().eq(want.metrics.iter()),
        "same keys, same order"
    );
    assert_eq!(got.to_json(), want.to_json());
    assert_eq!(blocks.len(), handles.len());

    // A name built at run time finds a block-held metric.
    let name = |parts: &[&str]| parts.concat();
    assert_eq!(got.counter(node.0, node.1, &name(&["se", "nt"])), 5);
    assert_eq!(got.gauge(node.0, node.1, &name(&["lead", "er"])), -1);
    match got.get(node.0, node.1, &name(&["rtt", "_ns"])) {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count, rtts.len() as u64),
        other => panic!("rtt_ns must be a histogram, got {other:?}"),
    }
    assert_eq!(got.get(node.0, node.1, &name(&["absent"])), None);
    assert_eq!(got.get(node.0, 5, &name(&["sent"])), None);
    assert_eq!(got.get(NodeKind::Host, 4, &name(&["sent"])), None);
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
