//! Criterion microbenchmarks for the core algorithmic operations beyond
//! Table 2: path-graph construction, Yen's k-shortest paths, probe
//! generation, packet codecs, and the simulator's event loop.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dumbnet_controller::{DiscoveryConfig, DiscoveryState};
use dumbnet_packet::{DumbNetFrame, LabelStack};
use dumbnet_sim::{Engine, LinkParams, World};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_topology::{generators, k_shortest_routes, pathgraph, PathGraphParams};
use dumbnet_types::{HostId, MacAddr, Path, PortNo, SimTime, SwitchId};

fn bench_pathgraph_build(c: &mut Criterion) {
    let g = generators::fat_tree(16, 1, None); // 320 switches.
    let params = PathGraphParams::default();
    let n = g.topology.host_count() as u64;
    let mut rng = StdRng::seed_from_u64(1);
    let mut i = 0u64;
    c.bench_function("pathgraph_build_fat_tree_k16", |b| {
        b.iter(|| {
            i += 1;
            let src = HostId(i % n);
            let dst = HostId((i * 7 + 3) % n);
            if src != dst {
                let _ = pathgraph::build(&g.topology, src, dst, &params, &mut rng);
            }
        })
    });
}

fn bench_ksp(c: &mut Criterion) {
    let g = generators::fat_tree(8, 0, None);
    let edges = g.group("edge").to_vec();
    c.bench_function("yen_k4_fat_tree_k8", |b| {
        b.iter(|| k_shortest_routes(&g.topology, edges[0], edges[edges.len() - 1], 4))
    });
}

fn bench_probe_generation(c: &mut Criterion) {
    c.bench_function("discovery_probe_generation", |b| {
        b.iter_batched(
            || {
                let mut d = DiscoveryState::new(
                    MacAddr::for_host(0),
                    DiscoveryConfig {
                        max_ports: 16,
                        ..DiscoveryConfig::blind()
                    },
                );
                // Bootstrap past the self-bounce phase.
                let now = SimTime::ZERO;
                let probes: Vec<_> = std::iter::from_fn(|| d.next_probe(now)).take(3).collect();
                d.on_probe_reply(probes[2].probe_id, MacAddr::for_host(0), now);
                let id_probe = d.next_probe(now).expect("own-id probe");
                d.on_switch_id(id_probe.probe_id, SwitchId(0), now);
                d
            },
            |mut d| {
                // Generate one stage-1 scan worth of probes (16² = 256).
                let now = SimTime::ZERO;
                for _ in 0..256 {
                    let _ = d.next_probe(now);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_codecs(c: &mut Criterion) {
    let frame = DumbNetFrame::encapsulate(
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        Path::from_ports([1, 2, 3, 4, 5, 6]).expect("6 tags"),
        0x0800,
        vec![0xAB; 1410],
    );
    let wire = frame.to_wire();
    c.bench_function("dumbnet_frame_encode_1450B", |b| b.iter(|| frame.to_wire()));
    c.bench_function("dumbnet_frame_decode_1450B", |b| {
        b.iter(|| DumbNetFrame::from_wire(&wire).expect("valid"))
    });
    let path = Path::from_ports([1, 2, 3, 4, 5, 6]).expect("6 tags");
    c.bench_function("mpls_stack_round_trip", |b| {
        b.iter(|| {
            let stack = LabelStack::from_path(&path);
            stack.to_path().expect("valid")
        })
    });
}

fn bench_engine_forwarding(c: &mut Criterion) {
    // A 3-switch chain forwarding one packet end to end: measures the
    // per-hop event cost of the simulator.
    c.bench_function("engine_3hop_forward", |b| {
        b.iter_batched(
            || {
                let mut w = World::new(0);
                let p1 = PortNo::new(1).expect("valid");
                let p2 = PortNo::new(2).expect("valid");
                let s: Vec<_> = (0..3)
                    .map(|i| {
                        w.add_node(Box::new(DumbSwitch::new(
                            SwitchId(i),
                            4,
                            DumbSwitchConfig::default(),
                        )))
                    })
                    .collect();
                let sink = w.add_node(Box::new(DumbSwitch::new(
                    SwitchId(9),
                    4,
                    DumbSwitchConfig::default(),
                )));
                w.wire(s[0], p2, s[1], p1, LinkParams::ten_gig())
                    .expect("wire");
                w.wire(s[1], p2, s[2], p1, LinkParams::ten_gig())
                    .expect("wire");
                w.wire(s[2], p2, sink, p1, LinkParams::ten_gig())
                    .expect("wire");
                let pkt = dumbnet_packet::Packet::data(
                    MacAddr::for_host(1),
                    MacAddr::for_host(0),
                    Path::from_ports([2, 2, 2]).expect("3 tags"),
                    0,
                    0,
                    1000,
                );
                w.inject(SimTime::ZERO, s[0], p1, pkt);
                w
            },
            |mut w| {
                w.run_to_idle(100);
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_pathgraph_build,
    bench_ksp,
    bench_probe_generation,
    bench_codecs,
    bench_engine_forwarding
);
criterion_main!(benches);
