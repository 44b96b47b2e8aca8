//! The kernel pass: isolated loops over single layers' public
//! functions, plus the slope measurements (differences of two runs).
//!
//! Each kernel runs [`BATCHES`] batches of at least [`BATCH`] each and
//! reports the fastest batch's cost per operation. Kernels are the same
//! whatever workload a run measures; the report multiplies them by each
//! workload's own counts to size the share a layer can possibly save.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dumbnet_controller::discovery::{DiscoveryConfig, DiscoveryState, ProbeOut};
use dumbnet_controller::replication::{ReplicaRole, ReplicatedLog};
use dumbnet_host::pathtable::{FlowKey, PathTable};
use dumbnet_host::topocache::TopoCache;
use dumbnet_packet::control::{PatchBatch, PatchEntry, TopoDelta};
use dumbnet_packet::header::DumbNetFrame;
use dumbnet_packet::Packet;
use dumbnet_sim::event::EventQueue;
use dumbnet_sim::{Engine, ShardedWorld, World};
use dumbnet_telemetry::{Counter, Histogram, NodeKind, Telemetry};
use dumbnet_topology::{
    generators, k_shortest_routes, pathgraph, shortest_route, Attachment, EdgeMap, PathGraphParams,
    RouteCache, Topology,
};
use dumbnet_types::{HostId, MacAddr, Path, PortId, PortNo, SimDuration, SimTime, SwitchId, Tag};

use crate::trace::Tracer;
use crate::workloads::{fabric_mix, storm};
use crate::Values;

/// Shortest batch a kernel is timed over.
const BATCH: Duration = Duration::from_millis(20);
/// Batches per kernel; the fastest is reported.
const BATCHES: usize = 5;

/// Nanoseconds per call of `op`, fastest of [`BATCHES`] batches.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let mut time = |n: u64| {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        t.elapsed()
    };
    // Grow the batch until it lasts long enough to time.
    let mut n = 1u64;
    loop {
        let t = time(n);
        if t >= BATCH {
            break;
        }
        let scale = BATCH.as_secs_f64() / t.as_secs_f64().max(1e-9);
        n = ((n as f64) * scale.clamp(2.0, 1_000.0) * 1.1).ceil() as u64;
    }
    let best = (0..BATCHES).map(|_| time(n)).min().expect("batches");
    best.as_secs_f64() * 1e9 / n as f64
}

fn t_ns(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// Push+pop pairs on the event queue in the three regimes the engine
/// meets: near-future packet hops, far-future timers (overflow heap) and
/// same-instant bursts.
fn queue_kernels(out: &mut Values) {
    // Near: the storm's own pattern. 2 000 standing events, most of them
    // injections waiting 1 µs apart; a popped event hops 1–2 µs ahead
    // eight times, then a fresh injection joins at the far end.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut key = 0u64;
    let mut frontier = 0u64;
    let mut inject = |q: &mut EventQueue<u64>, key: &mut u64| {
        q.push(t_ns(frontier), *key, 8);
        *key += 1;
        frontier += 1_000;
    };
    for _ in 0..2_000 {
        inject(&mut q, &mut key);
    }
    out.insert(
        "sim.queue.near_ns_per_op",
        ns_per_call(|| {
            let (t, hops) = q.pop().expect("standing events");
            if hops == 0 {
                inject(&mut q, &mut key);
            } else {
                q.push(
                    t + SimDuration::from_nanos(1_000 + (key & 1_023)),
                    key,
                    hops - 1,
                );
                key += 1;
            }
        }),
    );

    // Far: 50 000 standing deadlines, each pop re-arms 50 ms ahead, far
    // beyond the calendar wheel's horizon.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..50_000u64 {
        q.push(t_ns(i * 1_000), key, i);
        key += 1;
    }
    out.insert(
        "sim.queue.far_ns_per_op",
        ns_per_call(|| {
            let (t, e) = q.pop().expect("standing events");
            q.push(t + SimDuration::from_millis(50), key, e);
            key += 1;
        }),
    );

    // Burst: 64 events at one instant pushed, then all popped.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = 0u64;
    out.insert(
        "sim.queue.burst_ns_per_op",
        ns_per_call(|| {
            now += 1_000;
            for i in 0..64u64 {
                q.push(t_ns(now), key, i);
                key += 1;
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        }) / 64.0,
    );
}

fn codec_kernels(out: &mut Values) {
    let path = Path::from_ports(std::iter::repeat_n(2, 8)).expect("short path");
    out.insert(
        "types.path_clone_pop_ns",
        ns_per_call(|| {
            let mut p = black_box(&path).clone();
            while let Some(tag) = p.pop_front() {
                black_box(tag);
            }
        }),
    );
    let (dst, src) = (MacAddr::for_host(1), MacAddr::for_host(0));
    let mut seq = 0u64;
    out.insert(
        "packet.data_new_ns",
        ns_per_call(|| {
            seq += 1;
            black_box(Packet::data(dst, src, path.clone(), seq & 15, seq, 900));
        }),
    );
    let frame = DumbNetFrame::encapsulate(dst, src, path.clone(), 0x0800, vec![0xA5; 900]);
    out.insert(
        "packet.frame_codec_ns",
        ns_per_call(|| {
            let wire = black_box(&frame).to_wire();
            black_box(DumbNetFrame::from_wire(&wire).expect("round trip"));
        }),
    );
    let port = |n: u8| PortNo::new(n).expect("valid port");
    let batch = PatchBatch {
        epoch: 32,
        term: 1,
        seg: 0,
        segs: 1,
        entries: (1..=32u64)
            .map(|v| PatchEntry {
                version: v,
                delta: TopoDelta {
                    down: vec![(SwitchId(v), SwitchId(v + 1))],
                    up: vec![(
                        PortId::new(SwitchId(v + 2), port(1)),
                        PortId::new(SwitchId(v + 3), port(2)),
                    )],
                    ..TopoDelta::default()
                },
            })
            .collect(),
    };
    out.insert(
        "packet.control_codec_ns",
        ns_per_call(|| {
            let wire = black_box(&batch).to_wire();
            black_box(PatchBatch::from_wire(&wire).expect("round trip"));
        }),
    );
}

fn telemetry_kernels(out: &mut Values) {
    let registry = Telemetry::new(0);
    let counter = Counter::new();
    registry.register_counter(NodeKind::World, 0, "kernel", &counter);
    out.insert("telemetry.counter_inc_ns", ns_per_call(|| counter.inc()));
    let hist = Histogram::doubling(1, 32);
    registry.register_histogram(NodeKind::World, 0, "kernel_hist", &hist);
    let mut v = 1u64;
    out.insert(
        "telemetry.hist_observe_ns",
        ns_per_call(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.observe(v >> 40);
        }),
    );
    black_box(counter.get());
}

/// Route computation on the `fabric_mix` topology between seeded host
/// pairs on different edge switches.
fn topology_kernels(seed: u64, out: &mut Values) {
    let topo = generators::fat_tree(fabric_mix::K, fabric_mix::HOSTS_PER_EDGE, None).topology;
    let hosts = topo.host_count() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(HostId, HostId)> = (0..256)
        .map(|_| loop {
            let (a, b) = (rng.gen_range(0..hosts), rng.gen_range(0..hosts));
            if edge_of(&topo, a) != edge_of(&topo, b) {
                break (HostId(a), HostId(b));
            }
        })
        .collect();
    let mut i = 0usize;
    let mut next = || {
        i = (i + 1) % pairs.len();
        let (a, b) = pairs[i];
        (a, b, edge_of(&topo, a.0), edge_of(&topo, b.0))
    };
    out.insert(
        "topology.spath_us",
        ns_per_call(|| {
            let (_, _, a, b) = next();
            black_box(shortest_route(&topo, a, b, &mut rng));
        }) / 1e3,
    );
    out.insert(
        "topology.ksp4_us",
        ns_per_call(|| {
            let (_, _, a, b) = next();
            black_box(k_shortest_routes(&topo, a, b, 4));
        }) / 1e3,
    );
    let params = PathGraphParams::default();
    out.insert(
        "topology.pathgraph_build_us",
        ns_per_call(|| {
            let (src, dst, _, _) = next();
            black_box(pathgraph::build(&topo, src, dst, &params, &mut rng).expect("connected"));
        }) / 1e3,
    );
    let mut cache = RouteCache::new(seed);
    for &(a, b) in &pairs {
        cache.route(&topo, edge_of(&topo, a.0), edge_of(&topo, b.0));
    }
    out.insert(
        "topology.routecache_hit_ns",
        ns_per_call(|| {
            let (_, _, a, b) = next();
            black_box(cache.route(&topo, a, b));
        }),
    );
    // Misses: a fresh epoch every lap over the pair list (the clear is
    // amortised over the lap).
    let mut lap = 0usize;
    out.insert(
        "topology.routecache_miss_us",
        ns_per_call(|| {
            if lap == 0 {
                cache.bump_epoch();
            }
            lap = (lap + 1) % 64;
            let (_, _, a, b) = next();
            black_box(cache.route(&topo, a, b));
        }) / 1e3,
    );
    // The flow plane's edge enumeration, on the `flow_churn` topology.
    let big = generators::fat_tree(16, 8, None).topology;
    out.insert(
        "topology.edgemap_build_ms",
        ns_per_call(|| {
            black_box(EdgeMap::build(&big));
        }) / 1e6,
    );
}

fn edge_of(topo: &Topology, host: u64) -> SwitchId {
    topo.host(HostId(host)).expect("host").attached.switch
}

/// Host tables shaped like one `fabric_mix` host's when warm: every
/// other host as a destination, four cached paths each.
fn host_kernels(seed: u64, out: &mut Values) {
    let topo = generators::fat_tree(fabric_mix::K, fabric_mix::HOSTS_PER_EDGE, None).topology;
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PathGraphParams::default();
    let me = HostId(1);
    let mut cache = TopoCache::new();
    let mut table = PathTable::new();
    let mut dsts = Vec::new();
    for h in topo.hosts().filter(|h| h.id != me) {
        let graph = pathgraph::build(&topo, me, h.id, &params, &mut rng).expect("connected");
        cache.integrate(h.mac, graph, 1);
        dsts.push(h.mac);
    }
    for &dst in &dsts {
        let (paths, backup) = cache.k_paths(dst, 4).expect("graph cached");
        table.install(dst, paths, backup);
    }
    let mut i = 0usize;
    out.insert(
        "host.pathtable_lookup_ns",
        ns_per_call(|| {
            i = (i + 1) % dsts.len();
            black_box(table.lookup(dsts[i], FlowKey(i as u64 & 3), None));
        }),
    );
    // Invalidation consumes the table, so each call works on a clone and
    // the clone's own cost is measured apart and subtracted.
    let core_link = topo
        .links()
        .last()
        .map(|l| (l.a.switch, l.b.switch))
        .expect("links");
    let with_clone = ns_per_call(|| {
        let mut t = table.clone();
        black_box(t.invalidate_edge(core_link.0, core_link.1));
    });
    let clone_only = ns_per_call(|| {
        black_box(table.clone());
    });
    out.insert(
        "host.pathtable_invalidate_us",
        (with_clone - clone_only).max(0.0) / 1e3,
    );
    // k-path extraction is memoised until an edge changes state; flip an
    // edge outside every cached graph to force the computation.
    let (far_a, far_b) = (SwitchId(u64::MAX - 1), SwitchId(u64::MAX));
    let mut down = false;
    out.insert(
        "host.topocache_kpaths_us",
        ns_per_call(|| {
            i = (i + 1) % dsts.len();
            if down {
                cache.mark_up(far_a, far_b);
            } else {
                cache.mark_down(far_a, far_b);
            }
            down = !down;
            black_box(cache.k_paths(dsts[i], 4));
        }) / 1e3,
    );
}

/// Whether a packet leaving switch `from` with `tags` ends exactly at
/// the host `target`.
fn delivers_to(topo: &Topology, from: SwitchId, tags: &[Tag], target: MacAddr) -> bool {
    let mut cur = from;
    for (ix, tag) in tags.iter().enumerate() {
        let Some(port) = tag.as_port() else {
            return false;
        };
        match topo.switch(cur).expect("switch").attachment(port) {
            Some(Attachment::Link(lid)) => {
                cur = topo
                    .link(lid)
                    .expect("link")
                    .from_switch(cur)
                    .expect("end")
                    .1
                    .switch;
            }
            Some(Attachment::Host(h)) => {
                return ix + 1 == tags.len() && topo.host(h).expect("host").mac == target;
            }
            None => return false,
        }
    }
    false
}

/// The ground-truth oracle: answers a probe the way the fabric's
/// switches and hosts would, with no engine underneath.
fn answer(topo: &Topology, start: HostId, probe: &ProbeOut, d: &mut DiscoveryState, now: SimTime) {
    let me = *topo.host(start).expect("prober");
    let mut cur = me.attached.switch;
    let tags = probe.path.tags();
    for (i, tag) in tags.iter().enumerate() {
        let rest = &tags[i + 1..];
        if tag.is_id_query() {
            if delivers_to(topo, cur, rest, me.mac) {
                d.on_switch_id(probe.probe_id, cur, now);
            }
            return;
        }
        let port = tag.as_port().expect("probe tags are ports or queries");
        match topo.switch(cur).expect("switch").attachment(port) {
            Some(Attachment::Link(lid)) => {
                cur = topo
                    .link(lid)
                    .expect("link")
                    .from_switch(cur)
                    .expect("end")
                    .1
                    .switch;
            }
            Some(Attachment::Host(h)) => {
                let host = topo.host(h).expect("host");
                let replies = if rest.is_empty() {
                    host.mac == me.mac
                } else {
                    delivers_to(topo, host.attached.switch, rest, me.mac)
                };
                if replies {
                    d.on_probe_reply(probe.probe_id, host.mac, now);
                }
                return;
            }
            None => return,
        }
    }
}

/// Drives one whole discovery against the oracle; returns probes sent.
fn discover_against_oracle(topo: &Topology, max_ports: u8) -> u64 {
    let start = HostId(0);
    let mac = topo.host(start).expect("prober").mac;
    let timeout = SimDuration::from_millis(10);
    let mut d = DiscoveryState::new(
        mac,
        DiscoveryConfig {
            max_ports,
            timeout,
            max_retries: 3,
            hint: None,
        },
    );
    let mut now = SimTime::ZERO;
    loop {
        if let Some(probe) = d.next_probe(now) {
            answer(topo, start, &probe, &mut d, now);
            now = now + SimDuration::from_micros(10);
            continue;
        }
        now = now + timeout + timeout;
        if d.expire(now) == 0 && d.is_done() {
            d.mark_finished(now);
            return d.probes_sent();
        }
    }
}

fn controller_kernels(out: &mut Values) {
    let topo = generators::fat_tree(4, 1, Some(32)).topology;
    let probes = discover_against_oracle(&topo, 32);
    out.insert(
        "controller.discovery_step_ns",
        ns_per_call(|| {
            black_box(discover_against_oracle(&topo, 32));
        }) / probes as f64,
    );
    let members: Vec<MacAddr> = (0..3).map(MacAddr::for_host).collect();
    let mut log = ReplicatedLog::new(members[0], members.clone(), ReplicaRole::Leader);
    let mut version = 0u64;
    out.insert(
        "controller.log_append_ack_ns",
        ns_per_call(|| {
            version += 1;
            let delta = TopoDelta {
                down: vec![(SwitchId(version), SwitchId(version + 1))],
                ..TopoDelta::default()
            };
            let entry = log.append(version, delta);
            black_box(log.ack(entry.index, members[1]));
        }),
    );
}

/// Packets of each slope storm.
const SLOPE_PACKETS: usize = 100_000;
/// Packets of the threaded probe (kept small: on a 2-core host the
/// threaded path runs ~30× slower than the sequential one).
const THREADED_PACKETS: usize = 20_000;
/// Slope storms are repeated this often; the fastest counts.
const SLOPE_REPS: usize = 2;

/// Fastest of [`SLOPE_REPS`] storms on a fresh engine; returns
/// `(seconds, events)`.
fn storm_time<E: Engine>(new: impl Fn() -> E, chain: u8, flows: &[u16]) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..SLOPE_REPS {
        let mut w = new();
        let c = storm::build_chain(&mut w, chain);
        let t = Instant::now();
        let (stats, got) = storm::drive(&mut w, &c, flows, &mut Tracer::off());
        best = best.min(t.elapsed().as_secs_f64());
        assert_eq!(got, flows.len() as u64, "slope storm must be drop-free");
        events = stats.events;
    }
    (best, events)
}

/// Slopes: per-hop and fixed per-packet cost from a 1-switch vs an
/// 8-switch chain, the sequential sharding ratio, and the ungated
/// threaded probe.
fn storm_slopes(seed: u64, out: &mut Values) {
    let flows = storm::plan(seed, SLOPE_PACKETS);
    let packets = SLOPE_PACKETS as f64;
    let (t1, _) = storm_time(|| World::new(seed), 1, &flows);
    let (t8, _) = storm_time(|| World::new(seed), storm::CHAIN, &flows);
    let per_hop = (t8 - t1) / (f64::from(storm::CHAIN) - 1.0) / packets;
    out.insert("switch.per_hop_ns", per_hop * 1e9);
    out.insert("sim.fixed_ns_per_packet", (t1 / packets - per_hop) * 1e9);
    let (ts, _) = storm_time(|| storm::sequential_shards(seed), storm::CHAIN, &flows);
    out.insert("sim.shard.seq_ratio", ts / t8);
    let threaded = || {
        let mut w = ShardedWorld::new(seed, 2);
        w.set_parallel(Some(true));
        w
    };
    let (tt, events) = storm_time(threaded, storm::CHAIN, &flows[..THREADED_PACKETS]);
    out.insert("sim.shard.threaded_ns_per_event", tt * 1e9 / events as f64);
}

/// Runs every kernel and slope; returns per-layer metric name → value.
pub fn run(seed: u64) -> Values {
    let mut out = Values::new();
    queue_kernels(&mut out);
    codec_kernels(&mut out);
    telemetry_kernels(&mut out);
    topology_kernels(seed, &mut out);
    host_kernels(seed, &mut out);
    controller_kernels(&mut out);
    storm_slopes(seed, &mut out);
    out
}
