//! Integration tests spanning the whole stack: topology generation,
//! fabric assembly, controller bootstrap, routing, failure handling and
//! controller replication — on topologies larger than the unit tests
//! use.

use dumbnet::controller::ControllerConfig;
use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::agent::AppAction;
use dumbnet::host::HostAgent;
use dumbnet::sim::Engine;
use dumbnet::topology::generators;
use dumbnet::types::{HostId, MacAddr, SimDuration, SimTime};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn fat_tree_cross_pod_pings() {
    // k=4 fat-tree, 16 hosts. Host 0 is the controller; every fourth
    // host pings a host two pods away.
    let g = generators::fat_tree(4, 2, None);
    let n = g.topology.host_count() as u64;
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id.get() % 4 == 1 {
            cfg.actions = vec![AppAction::PingSeries {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host((id.get() + 8) % n),
                count: 4,
                interval: SimDuration::from_millis(1),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    fabric.run_until(at_ms(200));
    for id in (0..n).filter(|i| i % 4 == 1) {
        let agent = fabric.host(HostId(id)).unwrap();
        assert_eq!(agent.stats().rtts.len(), 4, "host {id} missing replies");
        // Cross-pod RTT crosses 4 switch hops each way but stays well
        // under a millisecond on idle 10G links.
        for (_, _, rtt) in &agent.stats().rtts {
            assert!(rtt.as_millis_f64() < 1.0, "rtt {rtt}");
        }
    }
}

#[test]
fn discovery_matches_on_cube_with_ambiguity() {
    // The 3×3 cube has many equal-length return paths — the ambiguity
    // §4.1's verify probes exist for.
    let g = generators::cube(&[3, 3], 1, 8);
    let truth = g.topology.clone();
    let mut cfg = FabricConfig::default();
    cfg.controller.run_discovery = true;
    cfg.controller.discovery.max_ports = 8;
    cfg.controller.discovery.timeout = SimDuration::from_millis(5);
    cfg.controller.probe_interval = SimDuration::from_micros(10);
    let mut fabric = Fabric::build(g.topology, cfg).unwrap();
    fabric.run_until(at_ms(10_000));
    let ctrl = fabric.controller(HostId(0)).unwrap();
    assert!(ctrl.ready());
    let found = ctrl.topology.as_ref().unwrap();
    assert_eq!(found.switch_count(), truth.switch_count());
    assert_eq!(found.link_count(), truth.link_count());
    assert_eq!(found.host_count(), truth.host_count());
    for l in found.links() {
        assert!(
            truth.link_between(l.a.switch, l.b.switch).is_some(),
            "phantom link {} ↔ {}",
            l.a,
            l.b
        );
    }
    for h in truth.hosts() {
        let f = found.host_by_mac(h.mac).expect("host discovered");
        assert_eq!(f.attached, h.attached, "host {} misplaced", h.mac);
    }
}

#[test]
fn failover_survives_double_failure() {
    // Cut both of one leaf's uplinks one after the other — the second
    // cut isolates the leaf, so delivery must stop, then resume when a
    // link recovers.
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id == HostId(1) {
            cfg.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 9,
                packets: 1000,
                bytes: 500,
                interval: SimDuration::from_micros(400),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    // Stream runs 10–410 ms.
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .unwrap();
    fabric
        .schedule_link_failure(at_ms(150), leaves[0], spines[1])
        .unwrap();
    fabric
        .schedule_link_recovery(at_ms(250), leaves[0], spines[0])
        .unwrap();
    // The switch's flap suppression delays the recovery announcement to
    // the end of its 1 s alarm window, so run well past that.
    fabric.run_until(at_ms(2_000));
    let rx = fabric.host(HostId(26)).unwrap();
    let &(pkts, _) = rx.stats().delivered.get(&9).unwrap();
    // 150–250 ms is a hard partition. Packets sent during it are queued
    // at the sender on PathTable misses and flushed once a path exists
    // again, so nearly everything must eventually arrive (a handful die
    // in flight at the failure instants).
    assert!(pkts >= 900, "only {pkts}/1000 delivered");
}

#[test]
fn controller_replication_and_takeover() {
    use dumbnet::controller::Controller;
    // Hosts 0 (leader, leaf 0) and 13 (follower, leaf 2) are
    // controllers. Isolating leaf 0 starves the follower of heartbeats;
    // it must take over and re-hello the surviving hosts.
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let cfg = FabricConfig {
        controllers: vec![HostId(0), HostId(13)],
        controller: ControllerConfig {
            peers: vec![MacAddr::for_host(0), MacAddr::for_host(13)],
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: SimDuration::from_millis(100),
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_full(g.topology, cfg, HostAgent::new, |id, mut ccfg| {
        ccfg.is_leader = id == HostId(0);
        Controller::new(id, ccfg)
    })
    .unwrap();
    // Let the leader bootstrap and heartbeats flow.
    fabric.run_until(at_ms(60));
    let follower = fabric.controller(HostId(13)).unwrap();
    assert!(
        !follower.stats().is_leader,
        "follower must start as standby"
    );
    assert_eq!(
        fabric.host(HostId(20)).unwrap().controller(),
        Some(MacAddr::for_host(0))
    );
    // Isolate the leader's leaf entirely.
    fabric
        .schedule_link_failure(at_ms(80), leaves[0], spines[0])
        .unwrap();
    fabric
        .schedule_link_failure(at_ms(80), leaves[0], spines[1])
        .unwrap();
    fabric.run_until(at_ms(500));
    let follower = fabric.controller(HostId(13)).unwrap();
    assert!(follower.stats().is_leader, "follower must take over");
    // Surviving hosts learned the new controller via its hello.
    let agent = fabric.host(HostId(20)).unwrap();
    assert_eq!(agent.controller(), Some(MacAddr::for_host(13)));
}

#[test]
fn random_topology_routes_everywhere() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // Jellyfish-style random graph: pings across random pairs.
    let mut rng = StdRng::seed_from_u64(77);
    let g = generators::random_regular(12, 3, 2, 8, &mut rng);
    let n = g.topology.host_count() as u64;
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id.get() % 5 == 2 {
            cfg.actions = vec![AppAction::PingSeries {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host((id.get() + 7) % n),
                count: 3,
                interval: SimDuration::from_millis(1),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    fabric.run_until(at_ms(300));
    for id in (0..n).filter(|i| i % 5 == 2) {
        if (id + 7) % n == id {
            continue;
        }
        let agent = fabric.host(HostId(id)).unwrap();
        assert_eq!(agent.stats().rtts.len(), 3, "host {id} missing replies");
    }
}

#[test]
fn verify_mode_discovery_is_exact_and_cheap() {
    use dumbnet::controller::DiscoveryConfig;
    // Blind discovery vs. verify-mode discovery (§4.1) on the same
    // fat-tree: both must map exactly; verify mode with a correct hint
    // must use far fewer probes.
    let g = generators::fat_tree(4, 1, None);
    let run = |hint: Option<dumbnet::topology::Topology>| {
        let g = generators::fat_tree(4, 1, None);
        let mut cfg = FabricConfig::default();
        cfg.controller.run_discovery = true;
        cfg.controller.discovery = DiscoveryConfig {
            max_ports: 8,
            timeout: SimDuration::from_millis(5),
            max_retries: 3,
            hint,
        };
        cfg.controller.probe_interval = SimDuration::from_micros(10);
        let mut fabric = Fabric::build(g.topology, cfg).unwrap();
        fabric.run_until(at_ms(20_000));
        let ctrl = fabric.controller(HostId(0)).unwrap();
        assert!(ctrl.ready(), "discovery incomplete");
        let found = ctrl.topology.as_ref().unwrap();
        (
            found.switch_count(),
            found.link_count(),
            found.host_count(),
            ctrl.stats().probes_sent,
        )
    };
    let (s1, l1, h1, blind_probes) = run(None);
    let (s2, l2, h2, verify_probes) = run(Some(g.topology.clone()));
    assert_eq!((s1, l1, h1), (s2, l2, h2));
    assert_eq!(s2, g.topology.switch_count());
    assert_eq!(l2, g.topology.link_count());
    assert_eq!(h2, g.topology.host_count());
    assert!(
        verify_probes * 3 < blind_probes,
        "verify mode sent {verify_probes} vs blind {blind_probes}"
    );
}

#[test]
fn verify_mode_tolerates_wrong_hints() {
    use dumbnet::controller::DiscoveryConfig;
    // A hint containing a link that does not exist: the verify probes
    // fail and no phantom link is recorded.
    let real = generators::testbed();
    let mut wrong = generators::testbed().topology;
    // Add a bogus link to the hint between two leaves (port 60/61 are
    // free on 64-port switches).
    let leaves = real.group("leaf").to_vec();
    wrong.connect(leaves[0], 60, leaves[1], 60).unwrap();
    let mut cfg = FabricConfig::default();
    cfg.controller.run_discovery = true;
    cfg.controller.discovery = DiscoveryConfig {
        max_ports: 12,
        timeout: SimDuration::from_millis(5),
        max_retries: 3,
        hint: Some(wrong),
    };
    cfg.controller.probe_interval = SimDuration::from_micros(10);
    let mut fabric = Fabric::build(real.topology.clone(), cfg).unwrap();
    fabric.run_until(at_ms(10_000));
    let ctrl = fabric.controller(HostId(0)).unwrap();
    assert!(ctrl.ready());
    let found = ctrl.topology.as_ref().unwrap();
    assert_eq!(found.link_count(), real.topology.link_count());
    assert!(found.link_between(leaves[0], leaves[1]).is_none());
}

#[test]
fn ping_to_unknown_destination_is_harmless() {
    // The controller replies `graph: None` for a MAC that does not
    // exist; the sender parks the packet and keeps running.
    let g = generators::testbed();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id == HostId(1) {
            cfg.actions = vec![AppAction::PingSeries {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(9_999), // No such host.
                count: 3,
                interval: SimDuration::from_millis(5),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    fabric.run_until(at_ms(300));
    let agent = fabric.host(HostId(1)).unwrap();
    assert!(agent.stats().rtts.is_empty());
    assert!(agent.stats().path_requests >= 1);
    // The rest of the fabric is unaffected: a later real ping works.
}

#[test]
fn misrouted_packet_dropped_at_ingress() {
    use dumbnet::packet::Packet;
    use dumbnet::types::Path;
    // Hand-deliver a packet to host 1 with tags remaining: the kernel
    // module check (§5.1) must drop it, not deliver it.
    let g = generators::testbed();
    let mut fabric = Fabric::build(g.topology, FabricConfig::default()).unwrap();
    let h1 = fabric.topology.host(HostId(1)).unwrap();
    let leaf = fabric.switch_addr(h1.attached.switch).unwrap();
    // Path [<h1 port>, 3]: the leaf delivers to host 1 with tag "3" left.
    let pkt = Packet::data(
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        Path::from_ports([h1.attached.port.get(), 3]).unwrap(),
        77,
        0,
        100,
    );
    fabric.world.inject(
        at_ms(5),
        leaf,
        dumbnet::types::PortNo::new(40).unwrap(),
        pkt,
    );
    fabric.run_until(at_ms(10));
    let agent = fabric.host(HostId(1)).unwrap();
    assert_eq!(agent.stats().ingress_drops, 1);
    assert!(!agent.stats().delivered.contains_key(&77));
}

#[test]
fn engine_marks_ecn_under_queue_pressure() {
    use dumbnet::sim::LinkParams;
    use dumbnet::types::Bandwidth;
    // Saturate a slow trunk: the engine must set the CE bit on packets
    // that queue past the threshold, and receivers must see it.
    let g = generators::testbed();
    let cfg = FabricConfig {
        trunk: LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::mbps(100),
            max_queue: SimDuration::from_millis(10),
            ecn_threshold: Some(SimDuration::from_micros(200)),
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
        if id == HostId(1) {
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 4,
                packets: 2_000,
                bytes: 1_200,
                interval: SimDuration::from_micros(50), // ≈192 Mbps ≫ 100.
            }];
        }
        HostAgent::new(id, hc)
    })
    .unwrap();
    fabric.run_until(at_ms(300));
    assert!(fabric.world.stats().ecn_marked > 100);
    let rx = fabric.host(HostId(26)).unwrap();
    let marked: u64 = rx.stats().ecn_marked.values().sum();
    assert!(marked > 100, "receiver saw only {marked} marked packets");
}

#[test]
fn path_queries_spread_over_controller_group() {
    use dumbnet::controller::Controller;
    // Two controllers (leader host 0, standby host 13): hosts learn both
    // and round-robin their path queries, so both replicas serve some.
    let g = generators::testbed();
    let cfg = FabricConfig {
        controllers: vec![HostId(0), HostId(13)],
        controller: ControllerConfig {
            peers: vec![MacAddr::for_host(0), MacAddr::for_host(13)],
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_full(
        g.topology,
        cfg,
        |id, mut hc| {
            // Every ordinary host pings several distinct destinations so
            // it issues several path queries.
            let n = 27u64;
            let mut actions = Vec::new();
            for k in 1..=3u64 {
                let dst = (id.get() + 7 * k) % n;
                if dst != id.get() && dst != 0 && dst != 13 {
                    actions.push(AppAction::PingSeries {
                        at: SimDuration::from_millis(100),
                        dst: MacAddr::for_host(dst),
                        count: 1,
                        interval: SimDuration::from_millis(1),
                    });
                }
            }
            hc.actions = actions;
            HostAgent::new(id, hc)
        },
        |id, mut ccfg| {
            ccfg.is_leader = id == HostId(0);
            Controller::new(id, ccfg)
        },
    )
    .unwrap();
    fabric.run_until(at_ms(500));
    let served_leader = fabric.controller(HostId(0)).unwrap().stats().path_requests;
    let served_standby = fabric.controller(HostId(13)).unwrap().stats().path_requests;
    assert!(served_leader > 0, "leader served nothing");
    assert!(served_standby > 0, "standby served nothing");
    // And the answers worked: pings completed.
    let agent = fabric.host(HostId(1)).unwrap();
    assert!(!agent.stats().rtts.is_empty());
    // The primary is still the leader.
    assert_eq!(agent.controller(), Some(MacAddr::for_host(0)));
}

#[test]
fn fat_tree_k8_full_mesh_sample_traffic() {
    // A larger fabric (80 switches, 128 hosts): sampled all-to-all pings
    // plus a failure mid-run. Guards against scaling regressions in the
    // whole stack.
    let g = generators::fat_tree(8, 2, None);
    let n = g.topology.host_count() as u64;
    let cores = g.group("core").to_vec();
    let aggs = g.group("agg").to_vec();
    let mut fabric = Fabric::build_with(g.topology, FabricConfig::default(), |id, mut cfg| {
        if id.get() % 8 == 3 {
            cfg.actions = vec![AppAction::PingSeries {
                at: SimDuration::from_millis(20),
                dst: MacAddr::for_host((id.get() + n / 2) % n),
                count: 6,
                interval: SimDuration::from_millis(10),
            }];
        }
        HostAgent::new(id, cfg)
    })
    .unwrap();
    // Cut one agg-core link mid-run; pings must keep completing.
    let link = fabric
        .topology
        .link_between(aggs[0], cores[0])
        .map(|l| (l.a.switch, l.b.switch));
    if let Some((a, b)) = link {
        fabric.schedule_link_failure(at_ms(50), a, b).unwrap();
    }
    fabric.run_until(at_ms(400));
    let mut total = 0;
    for id in (0..n).filter(|i| i % 8 == 3) {
        let dst = (id + n / 2) % n;
        if dst == id || dst == 0 || id == 0 {
            continue;
        }
        let agent = fabric.host(HostId(id)).unwrap();
        total += agent.stats().rtts.len();
        assert!(
            agent.stats().rtts.len() >= 5,
            "host {id} completed only {} pings",
            agent.stats().rtts.len()
        );
    }
    // 64 hosts, 8 pingers × 6 pings.
    assert!(total >= 40, "only {total} pings completed overall");
}

#[test]
fn restarted_ex_leader_does_not_split_brain() {
    // The split-brain regression: crash the leader, let a follower win
    // an election, then restart the ex-leader. The restarted node must
    // come back as a follower (it demotes itself when peers exist),
    // observe the successor's higher term, and re-sync — never a second
    // leader, and the replicated logs must converge.
    use dumbnet::controller::Controller;
    use dumbnet::fabric::chaos::check_invariants;

    let controllers = [0u64, 13, 25];
    let g = generators::testbed();
    let cfg = FabricConfig {
        controllers: controllers.iter().map(|&h| HostId(h)).collect(),
        controller: ControllerConfig {
            peers: controllers.iter().map(|&h| MacAddr::for_host(h)).collect(),
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: SimDuration::from_millis(100),
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_full(g.topology, cfg, HostAgent::new, |id, mut ccfg| {
        ccfg.is_leader = id == HostId(0);
        Controller::new(id, ccfg)
    })
    .unwrap();
    let leader_addr = fabric.host_addr(HostId(0)).unwrap();
    fabric.world.schedule_crash(at_ms(100), leader_addr);
    fabric.world.schedule_restart(at_ms(500), leader_addr);
    fabric.run_until(at_ms(1200));

    // Exactly one live leader, and it is the lowest-MAC survivor-era
    // winner (host 13), not the restarted ex-leader.
    let leaders: Vec<u64> = controllers
        .iter()
        .copied()
        .filter(|&h| fabric.controller(HostId(h)).unwrap().stats().is_leader)
        .collect();
    assert_eq!(leaders, vec![13], "expected exactly host 13 leading");
    let ex_leader = fabric.controller(HostId(0)).unwrap();
    assert!(
        ex_leader.stats().step_downs >= 1 || !ex_leader.stats().is_leader,
        "restarted ex-leader must have yielded"
    );
    // The new leader's term outranks the crashed leader's bootstrap
    // term, and the restarted node has adopted it.
    let new_term = fabric.controller(HostId(13)).unwrap().replication().term();
    assert!(new_term >= 2, "successor never bumped the term: {new_term}");
    assert_eq!(
        ex_leader.replication().term(),
        new_term,
        "restarted ex-leader did not adopt the successor's term"
    );
    // Leadership invariants: one leader per term across *history*,
    // monotone terms, convergent logs between live controllers.
    let report = check_invariants(&fabric);
    assert!(
        report.leadership_ok(),
        "leadership invariants violated: dup={:?} nonmono={:?} diverged={:?}",
        report.duplicate_term_leaders,
        report.nonmonotone_logs,
        report.divergent_log_pairs,
    );
    // Hosts followed the new leader's fenced hellos.
    let agent = fabric.host(HostId(20)).unwrap();
    assert_eq!(agent.controller(), Some(MacAddr::for_host(13)));
}

/// The testbed with controllers on hosts 0 (the leader), 13 and 25.
fn three_controllers(patch_delay: SimDuration) -> Fabric {
    use dumbnet::controller::Controller;
    let controllers = [0u64, 13, 25];
    let g = generators::testbed();
    let cfg = FabricConfig {
        controllers: controllers.iter().map(|&h| HostId(h)).collect(),
        controller: ControllerConfig {
            peers: controllers.iter().map(|&h| MacAddr::for_host(h)).collect(),
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: SimDuration::from_millis(100),
            patch_delay,
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    Fabric::build_full(g.topology, cfg, HostAgent::new, |id, mut ccfg| {
        ccfg.is_leader = id == HostId(0);
        Controller::new(id, ccfg)
    })
    .unwrap()
}

/// Fails the trunk between leaf 1 and spine 0 at `fail_ms`, crashes the
/// leader at `crash_ms` and runs to 600 ms. The winner (host 13) must
/// hold a committed down for the trunk, both survivors must show it
/// down, and a patch carrying it must reach host 20.
fn down_survives_the_leader(patch_delay_ms: u64, fail_ms: u64, crash_ms: u64) {
    let g = generators::testbed();
    let (leaf, spine) = (g.group("leaf")[1], g.group("spine")[0]);
    let mut fabric = three_controllers(SimDuration::from_millis(patch_delay_ms));
    let leader_addr = fabric.host_addr(HostId(0)).unwrap();
    fabric.world.schedule_crash(at_ms(crash_ms), leader_addr);
    fabric
        .schedule_link_failure(at_ms(fail_ms), leaf, spine)
        .unwrap();
    fabric.run_until(at_ms(600));

    let winner = fabric.controller(HostId(13)).unwrap();
    assert!(winner.stats().is_leader, "host 13 must take over");
    let trunk = |&(a, b): &_| (a, b) == (leaf, spine) || (b, a) == (leaf, spine);
    let log = winner.replication();
    let entry = log
        .entries()
        .find(|e| e.delta.down.iter().any(trunk))
        .expect("the down is in the new leader's log");
    assert!(entry.index <= log.committed(), "{entry:?} never committed");
    for h in [13, 25] {
        let topo = fabric
            .controller(HostId(h))
            .unwrap()
            .topology
            .clone()
            .unwrap();
        let link = topo.link_between(leaf, spine).unwrap();
        assert!(!link.up, "controller {h} still shows the trunk up");
    }
    let arrivals = &fabric.host(HostId(20)).unwrap().stats().patch_arrivals;
    assert!(
        arrivals
            .iter()
            .any(|&(version, _)| version >= entry.version),
        "no patch carrying the down reached host 20: {arrivals:?}"
    );
}

#[test]
fn an_alarm_heard_while_no_leader_lives_is_sequenced_by_the_next() {
    // Only the two followers hear the alarm: the winner sequences it.
    down_survives_the_leader(1, 120, 100);
}

#[test]
fn a_commit_the_dead_leader_never_flooded_is_flooded_by_the_next() {
    // The down commits and a heartbeat tells the followers so, but the
    // 50 ms flush window outlives the leader: the winner floods it.
    down_survives_the_leader(50, 100, 130);
}

#[test]
fn a_promotion_floods_only_what_no_flood_carried() {
    // The down commits and floods as epoch 2, which both followers
    // hear; the leader dies before a heartbeat tells them it committed.
    // The winner's no-op commits the inherited entry with it, and its
    // flood carries the no-op alone.
    use dumbnet::telemetry::{MetricValue, NodeKind};
    let g = generators::testbed();
    let (leaf, spine) = (g.group("leaf")[1], g.group("spine")[0]);
    let mut fabric = three_controllers(SimDuration::from_millis(1));
    let leader_addr = fabric.host_addr(HostId(0)).unwrap();
    fabric.world.schedule_crash(at_ms(110), leader_addr);
    fabric
        .schedule_link_failure(at_ms(105), leaf, spine)
        .unwrap();
    fabric.run_until(at_ms(600));
    let winner = fabric.controller(HostId(13)).unwrap();
    assert!(winner.stats().is_leader, "host 13 must take over");
    assert_eq!(winner.topo_version(), 3, "the down and the no-op");
    let snapshot = fabric.telemetry_snapshot();
    let floods = |h: u64| match snapshot.get(NodeKind::Controller, h, "patch_batch_entries") {
        Some(MetricValue::Histogram(floods)) => (floods.count, floods.sum),
        other => panic!("controller {h}: {other:?}"),
    };
    assert_eq!(floods(0), (1, 1), "the dead leader flooded epoch 2");
    assert_eq!(floods(13), (1, 1), "the winner re-sent an epoch it heard");
}
