//! Emulator hot-path scenarios and determinism gates.
//!
//! Unlike the figure harnesses, which report *virtual-time* results from
//! the paper's experiments, each scenario here is a deterministic
//! workload dominated by one of the engine's hot paths, reduced to a
//! checksum proving the run did the same work — the behaviour-preservation
//! pins of [`crate::gates::GATES`]. How much *real* time they burn is
//! measured from outside, by `benchmark/`; nothing here reads a clock.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::DatapathVariant;
use dumbnet_sim::{
    Ctx, Engine, FlowId, FlowSim, LinkParams, Node, ShardedWorld, SolverStats, World,
};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_topology::{generators, spath, Route, Topology};
use dumbnet_types::{Bandwidth, HostId, MacAddr, Path, PortNo, SimTime, SwitchId};
use dumbnet_workload::FlowMap;

use crate::fig08;
use crate::fig10;
use crate::fig11c;
use crate::gates::{Args, Outcome};

/// Chain length of the forward-storm scenario.
const STORM_CHAIN: u8 = 8;

struct StormSink {
    got: u64,
}
impl Node for StormSink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: dumbnet_packet::Packet) {
        self.got += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Pure engine storm on any [`Engine`]: a chain of dumb switches,
/// packets injected with full tag paths, no hosts or controller.
/// Stresses event scheduling, wire lookup and per-hop tag consumption
/// only. The chain is spread in contiguous blocks over the engine's
/// cells, so every block boundary is a cross-shard wire.
fn forward_storm_on<E: Engine>(w: &mut E, packets: u64) -> (u64, u64) {
    let cells = u32::try_from(w.cell_count()).expect("cell count fits");
    let cell_of = |i: u8| u32::from(i) * cells / u32::from(STORM_CHAIN);
    let p = |n: u8| PortNo::new(n).expect("valid port");
    let switches: Vec<_> = (0..STORM_CHAIN)
        .map(|i| {
            w.add_node_in_cell(
                Box::new(DumbSwitch::new(
                    SwitchId(u64::from(i)),
                    8,
                    DumbSwitchConfig::default(),
                )),
                cell_of(i),
            )
        })
        .collect();
    let sink = w.add_node_in_cell(Box::new(StormSink { got: 0 }), cells - 1);
    for pair in switches.windows(2) {
        w.wire(pair[0], p(2), pair[1], p(1), LinkParams::ten_gig())
            .expect("wires");
    }
    w.wire(
        switches[STORM_CHAIN as usize - 1],
        p(2),
        sink,
        p(1),
        LinkParams::ten_gig(),
    )
    .expect("wires");
    let path =
        Path::from_ports(std::iter::repeat_n(2, usize::from(STORM_CHAIN))).expect("short path");
    // Pace injections at 1 µs so the first wire's queue never overflows
    // (900 B at 10 Gbps serializes in 720 ns) — the point is forwarding
    // throughput, not drop accounting.
    for i in 0..packets {
        let pkt = dumbnet_packet::Packet::data(
            MacAddr::for_host(1),
            MacAddr::for_host(0),
            path.clone(),
            i % 16,
            i,
            900,
        );
        let at = SimTime::ZERO + dumbnet_types::SimDuration::from_micros(i);
        w.inject(at, switches[0], p(1), pkt);
    }
    w.run_to_idle(u64::MAX);
    let delivered = w.node::<StormSink>(sink).expect("sink").got;
    assert_eq!(delivered, packets, "storm must be drop-free");
    (w.stats().events, delivered)
}

/// The storm on the sharded PDES engine. Returns the usual
/// `(events, delivered)` pair plus the load-balance parallelism bound
/// (total events / busiest shard's events): the speedup the partition
/// admits on sufficiently many cores, independent of the host's.
fn forward_storm_mt(packets: u64, shards: usize) -> (u64, u64, f64) {
    let mut w = ShardedWorld::new(7, shards);
    let (events, delivered) = forward_storm_on(&mut w, packets);
    let counts = w.shard_event_counts();
    let total: u64 = counts.iter().sum();
    let busiest = counts.iter().copied().max().unwrap_or(1).max(1);
    #[allow(clippy::cast_precision_loss)]
    let parallelism = total as f64 / busiest as f64;
    (events, delivered, parallelism)
}

/// Seed for the flow-solver churn plan's ECMP route draws.
const CHURN_SEED: u64 = 0xF10C;

/// Pre-planned flow-solver churn workload: host pairs with a primary and
/// an alternate ECMP path each, plus the trunk whose capacity flaps
/// mid-run. Planned once and replayed identically under both solver
/// modes.
struct ChurnPlan {
    topo: Topology,
    /// `(primary, alternate)` edge paths per flow slot, in start order.
    /// Slot `i` is `FlowId(i)` in the replay — flows start in slot order.
    paths: Vec<(Vec<dumbnet_sim::EdgeId>, Vec<dumbnet_sim::EdgeId>)>,
    /// Trunk whose capacity flaps during churn.
    flap: (SwitchId, SwitchId),
    /// Flows started before the churn loop.
    initial: usize,
    /// Churn operations (each followed by a full rate query).
    ops: usize,
}

/// Plans the churn workload on a k=16 fat-tree (1024 hosts): `initial`
/// flows up front plus spare slots for mid-churn arrivals, each slot
/// with two independently drawn ECMP shortest paths.
fn churn_plan(initial: usize, ops: usize) -> ChurnPlan {
    let g = generators::fat_tree(16, 8, None);
    let topo = g.topology;
    let mut probe = FlowSim::new();
    // Edge enumeration is a function of the topology alone, so paths
    // planned against this probe instance are valid in the replays.
    let map = FlowMap::build(&mut probe, &topo, Bandwidth::gbps(10), Bandwidth::gbps(10));
    let mut rng = StdRng::seed_from_u64(CHURN_SEED);
    let hosts = topo.host_count() as u64;
    let slots = initial + ops.div_ceil(4) + 1;
    let mut paths = Vec::with_capacity(slots);
    for i in 0..slots as u64 {
        let src = HostId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % hosts);
        let mut dst = HostId(i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % hosts);
        if dst == src {
            dst = HostId((dst.0 + 1) % hosts);
        }
        let a = topo.host(src).expect("src host").attached.switch;
        let b = topo.host(dst).expect("dst host").attached.switch;
        let mut route = || {
            if a == b {
                Route::new(vec![a]).expect("trivial route")
            } else {
                spath::shortest_route(&topo, a, b, &mut rng).expect("fat-tree is connected")
            }
        };
        let (r1, r2) = (route(), route());
        let p1 = map.path(src, dst, &r1).expect("primary path");
        let p2 = map.path(src, dst, &r2).expect("alternate path");
        paths.push((p1, p2));
    }
    let flap = map
        .edge_map()
        .trunks()
        .next()
        .expect("fat-tree has trunks")
        .0;
    ChurnPlan {
        topo,
        paths,
        flap,
        initial,
        ops,
    }
}

/// Replays the churn plan under one solver mode. Every operation is
/// followed by an aggregate rate query (the solve trigger). Returns the
/// solver's counters and a checksum folding every queried aggregate
/// rate plus the completion count — bit-identical rates make it
/// identical across modes.
fn flowsim_churn(plan: &ChurnPlan, force_full: bool) -> (SolverStats, u64) {
    let mut fs = FlowSim::new();
    let map = FlowMap::build(
        &mut fs,
        &plan.topo,
        Bandwidth::gbps(10),
        Bandwidth::gbps(10),
    );
    fs.set_force_full_solve(force_full);
    let bytes = |slot: usize| 20_000_000 + (slot as u64).wrapping_mul(9_973) % 80_000_000;
    let mut ids: Vec<FlowId> = Vec::new();
    for slot in 0..plan.initial {
        ids.push(fs.start_flow(plan.paths[slot].0.clone(), bytes(slot)));
    }
    let mut next_slot = plan.initial;
    let mut checksum: u64 = 0;
    for op in 0..plan.ops {
        match op % 4 {
            0 => {
                if let Some(t) = fs.next_completion_time() {
                    fs.advance_to(t);
                }
            }
            1 => {
                ids.push(fs.start_flow(plan.paths[next_slot].0.clone(), bytes(next_slot)));
                next_slot += 1;
            }
            2 => {
                let slot = op.wrapping_mul(7_919) % ids.len();
                let path = if op % 8 == 2 {
                    &plan.paths[slot].1
                } else {
                    &plan.paths[slot].0
                };
                fs.reroute(ids[slot], path.clone());
            }
            _ => {
                if op % 8 == 3 {
                    map.fail_link(&mut fs, plan.flap.0, plan.flap.1);
                } else {
                    map.restore_link(&mut fs, plan.flap.0, plan.flap.1, Bandwidth::gbps(10));
                }
            }
        }
        checksum = checksum.wrapping_add(fs.aggregate_rate(&ids).bits_per_sec());
    }
    let finished = ids.iter().filter(|&&f| fs.finished_at(f).is_some()).count() as u64;
    (fs.solver_stats(), checksum ^ finished.rotate_left(32))
}

/// One scenario's outcome: the checksum the gate table pins, and what
/// it counts.
fn point(checksum: u64, work: &str) -> Outcome {
    Outcome {
        checksum: Some(checksum),
        ..Outcome::text(format_args!("checksum {checksum}  ({work})"))
    }
}

/// `engine_forward_storm`: pure event scheduling + per-hop tag popping,
/// no control plane, on one world and then on the 8-shard PDES engine.
/// Checksum: events dispatched. Fails unless the shards
/// dispatch and deliver exactly what the single world does and the
/// partition admits at least 3x parallelism.
#[must_use]
pub fn storm(args: &Args) -> Outcome {
    const STORM_SHARDS: usize = 8;
    let packets: u64 = if args.quick { 20_000 } else { 200_000 };
    let (events, delivered) = forward_storm_on(&mut World::new(7), packets);
    let (mt_events, mt_delivered, balance) = forward_storm_mt(packets, STORM_SHARDS);
    if (mt_events, mt_delivered) != (events, delivered) || balance < 3.0 {
        return Outcome::violation(format!(
            "{STORM_SHARDS}-shard storm: {mt_events} events, {mt_delivered} delivered, balance \
             {balance:.2}; want {events} and {delivered} as on one world, and balance >= 3.0"
        ));
    }
    let work = format!("events; {delivered} delivered, {STORM_SHARDS}-shard balance {balance:.2}");
    point(events, &work)
}

/// `fig08a_fat_tree`: the best point of the fig08c window sweep —
/// pipelined discovery with 16 probes in flight per pump tick (lockstep,
/// window 1, is what fig08a *reports*; an operator bootstrapping a real
/// fabric would run this). Checksum: probes sent.
#[must_use]
pub fn discovery(args: &Args) -> Outcome {
    const FIG08A_WINDOW: usize = 16;
    let (k, max_ports): (usize, u8) = if args.quick { (8, 16) } else { (20, 64) };
    let g = generators::fat_tree(k, 1, Some(max_ports.max(k as u8)));
    let pt = fig08::discover_windowed(g.topology, HostId(0), max_ports, "perf", FIG08A_WINDOW);
    if !pt.exact {
        return Outcome::violation(format!("fat-tree k={k} discovery no longer maps exactly"));
    }
    point(pt.probes, &format!("probes, fat-tree k={k}"))
}

/// `fig10_path_service`: the all-pairs ping mesh with cold caches —
/// path-graph construction and path queries on the controller.
/// Checksum: RTT samples collected.
#[must_use]
pub fn path_service(_: &Args) -> Outcome {
    let cdf = fig10::ping_mesh(DatapathVariant::DumbNet, 2);
    point(cdf.len() as u64, "RTT samples")
}

/// `fig11c_chaos_p05`: the lossy-fabric recovery run — fault-RNG draws,
/// retries and failover on top of the data stream. Checksum: packets the
/// loss model dropped.
#[must_use]
pub fn chaos_p05(_: &Args) -> Outcome {
    let pt = fig11c::chaos_recovery_point(0.05);
    point(pt.drops_loss, "loss-model drops")
}

/// `flowsim_churn`: incremental max-min vs the O(F·E) reference solver
/// on one shared churn plan (10k active flows; quick shrinks the flow
/// count, since the reference mode pays the full-resolve cost per
/// query). Fails unless both modes agree on every rate and on the solve
/// count. Checksum: the folded rates; the incremental solver's
/// bottleneck rounds, and how many of them it replayed, are printed
/// beside it.
#[must_use]
pub fn flow_churn(args: &Args) -> Outcome {
    let (flows, ops) = if args.quick {
        (2_000, 60)
    } else {
        (10_000, 100)
    };
    let plan = churn_plan(flows, ops);
    let (inc, full) = (flowsim_churn(&plan, false), flowsim_churn(&plan, true));
    let (inc_solves, full_solves) = ((inc.0.solves, inc.1), (full.0.solves, full.1));
    if inc_solves != full_solves {
        return Outcome::violation(format!(
            "incremental and full-resolve solvers diverged: \
             (solves, checksum) {inc_solves:?} vs {full_solves:?}"
        ));
    }
    let work = format!(
        "folded rates; {} solves in both modes; {} rounds, {} replayed",
        inc.0.solves, inc.0.rounds, inc.0.rounds_replayed
    );
    point(inc.1, &work)
}

/// Builds the testbed fabric, runs the full boot + discovery sequence,
/// and returns `(snapshot_is_empty, snapshot_json)`.
fn telemetry_probe() -> (bool, String) {
    let g = generators::testbed();
    let mut fabric = Fabric::build(g.topology, FabricConfig::default()).expect("fabric builds");
    fabric.run_until(SimTime::ZERO + dumbnet_types::SimDuration::from_millis(300));
    let snap = fabric.telemetry_snapshot();
    (snap.metrics.is_empty(), snap.to_json())
}

/// The `telemetry_determinism` gate: the registry must be populated
/// after a boot sequence, and two same-seed runs must serialize to
/// byte-identical snapshot JSON.
#[must_use]
pub fn telemetry_determinism(_: &Args) -> Outcome {
    let (empty, a) = telemetry_probe();
    if empty {
        return Outcome::violation("telemetry snapshot is empty: no metrics registered".to_owned());
    }
    let (_, b) = telemetry_probe();
    if a != b {
        return Outcome::violation(format!(
            "telemetry snapshot JSON diverged between two same-seed runs \
             ({} vs {} bytes)",
            a.len(),
            b.len()
        ));
    }
    Outcome::text(format_args!(
        "telemetry snapshot deterministic ({} bytes of JSON)",
        a.len()
    ))
}

/// The `shard_determinism` gate: the same workload must produce
/// byte-identical observables at 1 shard and at 8 shards, for both the
/// raw engine storm and a full DumbNet fabric boot on the sharded
/// engine.
#[must_use]
pub fn shard_determinism(_: &Args) -> Outcome {
    // Raw engine: the forward storm. A digest is everything the
    // determinism contract covers: merged engine counters plus the
    // merged telemetry snapshot JSON.
    let digests: Vec<String> = [1usize, 8]
        .iter()
        .map(|&shards| {
            let mut w = ShardedWorld::new(7, shards);
            forward_storm_on(&mut w, 5_000);
            format!("{:?}|{}", w.stats(), w.telemetry_snapshot().to_json())
        })
        .collect();
    if digests[0] != digests[1] {
        return Outcome::violation(format!(
            "forward storm diverged between 1 and 8 shards \
             ({} vs {} digest bytes)",
            digests[0].len(),
            digests[1].len()
        ));
    }

    // Full stack: testbed fabric boot + hello distribution.
    let fabric_digest = |cells: u32| -> String {
        let g = generators::testbed();
        let mut fabric =
            Fabric::build_sharded(g.topology, FabricConfig::default(), &g.groups, cells)
                .expect("sharded fabric builds");
        fabric.run_until(SimTime::ZERO + dumbnet_types::SimDuration::from_millis(300));
        format!(
            "{:?}|{}",
            fabric.world.stats(),
            fabric.telemetry_snapshot().to_json()
        )
    };
    let (a, b) = (fabric_digest(1), fabric_digest(8));
    if a != b {
        return Outcome::violation(format!(
            "testbed fabric boot diverged between 1 and 8 cells \
             ({} vs {} digest bytes)",
            a.len(),
            b.len()
        ));
    }
    Outcome::text(format_args!(
        "1-shard and 8-shard runs byte-identical ({} digest bytes)",
        digests[0].len() + a.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_storm_matches_single_threaded() {
        let (events, delivered) = forward_storm_on(&mut World::new(7), 500);
        for shards in [1usize, 2, 4, 8] {
            let (mt_events, mt_delivered, parallelism) = forward_storm_mt(500, shards);
            assert_eq!(mt_delivered, delivered, "{shards}-shard storm dropped");
            assert_eq!(mt_events, events, "{shards}-shard storm event count");
            assert!(parallelism >= 1.0);
        }
    }

    #[test]
    fn quick_churn_pins_solver_rounds() {
        // The `flow-churn` gate row's shape. Its checksum holds the
        // rates; this holds the work: a solver that stopped replaying
        // the last solve's bottleneck order would still be right.
        let (stats, _) = flowsim_churn(&churn_plan(2_000, 60), false);
        let got = (stats.solves, stats.rounds, stats.rounds_replayed);
        assert_eq!(got, (61, 49_708, 19_677));
    }

    #[test]
    fn telemetry_snapshot_is_populated() {
        let len = telemetry_probe().1.len();
        assert!(len > 1_000, "suspiciously small snapshot: {len} bytes");
    }
}
