//! Integration tests for the §6/§8 extensions running on a whole fabric:
//! in-band switch statistics, ECN marking with congestion-avoiding
//! rerouting, and flowlet TE inside a live host agent. Tenant isolation
//! is tested in `ext::vnet` (`tenant_path_via_foreign_spine_rejected`,
//! `tenant_cannot_reach_foreign_host`).

use dumbnet::ext::{EcnFlowletRouting, FlowletRouting};
use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::agent::AppAction;
use dumbnet::host::HostAgent;
use dumbnet::packet::control::PortStat;
use dumbnet::packet::{ControlMessage, Packet};
use dumbnet::sim::{Engine, LinkParams};
use dumbnet::topology::generators;
use dumbnet::types::{Bandwidth, HostId, MacAddr, Path, SimDuration, SimTime, Tag};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn in_band_stats_query_returns_port_counters() {
    // Drive traffic through the testbed, then ask a leaf switch for its
    // counters with a 0-tagged StatsQuery — no switch configuration, no
    // switch tables, just an in-band request.
    let g = generators::testbed();
    let leaves = g.group("leaf").to_vec();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id == HostId(1) {
            cfg.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 3,
                packets: 50,
                bytes: 900,
                interval: SimDuration::from_micros(100),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    fabric.run_until(at_ms(100));
    // Host 1 sits on leaf 0; its access port is the leaf's first host
    // port. Send 0-<host1 port>-ø from host 1: query own switch, reply
    // back to host 1.
    let h1 = fabric.topology.host(HostId(1)).unwrap();
    let own_port = h1.attached.port;
    assert_eq!(h1.attached.switch, leaves[0]);
    let query = Packet::control(
        MacAddr::BROADCAST,
        MacAddr::for_host(1),
        Path::from_tags([Tag::ID_QUERY, Tag::from_port(own_port)]).unwrap(),
        ControlMessage::StatsQuery { probe_id: 42 },
    );
    let leaf_addr = fabric.switch_addr(leaves[0]).unwrap();
    fabric.world.inject(at_ms(110), leaf_addr, own_port, query);
    fabric.run_until(at_ms(120));
    let agent = fabric.host(HostId(1)).unwrap();
    assert_eq!(agent.stats().stats_replies.len(), 1);
    let (switch, ports) = &agent.stats().stats_replies[0];
    assert_eq!(*switch, leaves[0]);
    // The stream crossed this leaf: its uplink ports carried packets.
    let total_tx: u64 = ports.iter().map(|p: &PortStat| p.tx_packets).sum();
    assert!(total_tx >= 50, "leaf counted only {total_tx} packets");
    assert!(ports.iter().all(|p| p.tx_bytes > 0));
}

#[test]
fn ecn_marks_are_echoed_and_flows_reroute() {
    // Two heavy flows collide on one capped spine trunk; ECN marks flow
    // back to the senders, whose EcnFlowletRouting hops away. We assert
    // the full §8 pipeline fired: marks at the fabric, echoes at the
    // senders, at least one congestion-triggered reroute, and delivery.
    let g = generators::testbed();
    let cfg = FabricConfig {
        trunk: LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::mbps(500),
            max_queue: SimDuration::from_millis(4),
            ecn_threshold: Some(SimDuration::from_micros(300)),
        },
        ..FabricConfig::default()
    };
    let senders = [HostId(1), HostId(2)];
    let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
        if senders.contains(&id) {
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26 - id.get()), // 25 and 24.
                flow: id.get(),
                packets: 20_000,
                bytes: 1_200,
                // ≈480 Mbps each: together they overrun one 500 Mbps
                // trunk but fit comfortably on two.
                interval: SimDuration::from_micros(20),
            }];
            return HostAgent::with_routing(
                id,
                hc,
                Box::new(EcnFlowletRouting::new(
                    SimDuration::from_micros(500),
                    SimDuration::from_millis(2),
                )),
            );
        }
        HostAgent::new(id, hc)
    })
    .unwrap();
    fabric.run_until(at_ms(600));
    assert!(
        fabric.world.stats().ecn_marked > 0,
        "no packets were ECN-marked"
    );
    let mut echoes = 0;
    let mut delivered = 0u64;
    for h in 1..27u64 {
        if let Some(agent) = fabric.host(HostId(h)) {
            echoes += agent.stats().ecn_echoes;
            delivered += agent
                .stats()
                .delivered
                .values()
                .map(|&(pkts, _)| pkts)
                .sum::<u64>();
        }
    }
    assert!(echoes > 0, "no ECN echoes reached the senders");
    // The streams must still make substantial progress (no collapse).
    assert!(delivered > 20_000, "only {delivered} packets delivered");
}

#[test]
fn flowlet_routing_spreads_a_live_flow() {
    // A host agent with FlowletRouting and gappy traffic: the flow's
    // packets must traverse more than one spine.
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, hc| {
        if id == HostId(1) {
            let mut hc = hc;
            // 200 packets with 1 ms gaps — every packet is its own
            // flowlet at a 200 µs timeout.
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 5,
                packets: 200,
                bytes: 400,
                interval: SimDuration::from_millis(1),
            }];
            return HostAgent::with_routing(
                id,
                hc,
                Box::new(FlowletRouting::new(SimDuration::from_micros(200))),
            );
        }
        HostAgent::new(id, hc)
    })
    .unwrap();
    fabric.run_until(at_ms(400));
    let rx = fabric.host(HostId(26)).unwrap();
    let &(pkts, _) = rx.stats().delivered.get(&5).unwrap();
    assert_eq!(pkts, 200);
    // Both spines forwarded pieces of the flow.
    for &s in &spines {
        let fwd = fabric.switch(s).unwrap().stats().forwarded;
        assert!(fwd > 20, "spine {s} saw only {fwd} packets");
    }
}
