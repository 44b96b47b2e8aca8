//! `storm_chain` / `storm_sharded`: a raw packet storm down a chain of
//! dumb switches into a sink — event scheduling, wire lookup and per-hop
//! tag popping only; no host, controller, topology or flow plane.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dumbnet_packet::Packet;
use dumbnet_sim::{Ctx, Engine, LinkParams, Node, NodeAddr, ShardedWorld, World, WorldStats};
use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet_types::{MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};

use super::{engine_rows, Clock, Fold, Rep};
use crate::trace::Tracer;
use crate::Values;

/// Switches in the workload chain (full 8-tag paths).
pub const CHAIN: u8 = 8;
/// Packets per storm repetition.
pub const PACKETS: usize = 500_000;
/// Packets injected between two `run_until` calls. At the 1 µs pacing
/// below a slice spans 2 ms, so the pending set stays inside the
/// calendar queue's ≈ 4.2 ms horizon instead of spilling a million
/// events into its overflow heap.
const SLICE: usize = 2_000;
/// Data payload bytes (serialises in 720 ns at 10 Gbps, under the pacing
/// gap, so no queue ever overflows: the storm is drop-free).
const BYTES: usize = 900;

struct Sink {
    got: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, _: Packet) {
        self.got += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn port(n: u8) -> PortNo {
    PortNo::new(n).expect("valid port")
}

/// A wired chain: where to inject, where packets end, the full path.
pub struct Chain {
    head: NodeAddr,
    sink: NodeAddr,
    path: Path,
}

/// Builds `len` switches in a row plus a sink, spread in contiguous
/// blocks over the engine's cells (8 switches on 8 cells: every
/// switch-to-switch hop crosses a shard boundary).
pub fn build_chain<E: Engine>(w: &mut E, len: u8) -> Chain {
    let cells = u32::try_from(w.cell_count()).expect("cell count fits");
    let switches: Vec<NodeAddr> = (0..len)
        .map(|i| {
            let sw = DumbSwitch::new(SwitchId(u64::from(i)), 8, DumbSwitchConfig::default());
            w.add_node_in_cell(Box::new(sw), u32::from(i) * cells / u32::from(len))
        })
        .collect();
    let sink = w.add_node_in_cell(Box::new(Sink { got: 0 }), cells - 1);
    for pair in switches.windows(2) {
        w.wire(pair[0], port(2), pair[1], port(1), LinkParams::ten_gig())
            .expect("chain wires");
    }
    let last = *switches.last().expect("non-empty chain");
    w.wire(last, port(2), sink, port(1), LinkParams::ten_gig())
        .expect("sink wire");
    Chain {
        head: switches[0],
        sink,
        path: Path::from_ports(std::iter::repeat_n(2, usize::from(len))).expect("short path"),
    }
}

/// The seeded part of a storm: one flow id per packet.
pub fn plan(seed: u64, packets: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..packets).map(|_| rng.gen_range(0..1024u16)).collect()
}

/// Injects the planned packets in slices interleaved with `run_until`,
/// then drains. Returns the engine's counters and the sink's count.
pub fn drive<E: Engine>(
    w: &mut E,
    chain: &Chain,
    flows: &[u16],
    tr: &mut Tracer,
) -> (WorldStats, u64) {
    let (src, dst) = (MacAddr::for_host(0), MacAddr::for_host(1));
    let mut seq = 0u64;
    for slice in flows.chunks(SLICE) {
        let s = tr.begin("sim.inject");
        for &flow in slice {
            let pkt = Packet::data(dst, src, chain.path.clone(), u64::from(flow), seq, BYTES);
            let at = SimTime::ZERO + SimDuration::from_micros(seq);
            w.inject(at, chain.head, port(1), pkt);
            seq += 1;
        }
        tr.end(s);
        let s = tr.begin("sim.run");
        w.run_until(SimTime::ZERO + SimDuration::from_micros(seq));
        tr.end(s);
    }
    let s = tr.begin("sim.run");
    w.run_to_idle(u64::MAX);
    tr.end(s);
    let stats = w.stats();
    let got = w.node::<Sink>(chain.sink).expect("sink node").got;
    (stats, got)
}

/// Fold shared by both storms: the sharded engine must reproduce the
/// single world's counts exactly, so the two workloads share one pin.
fn finish<E: Engine>(rep: &mut Rep, w: &mut E, stats: WorldStats, got: u64, tr: &mut Tracer) {
    let packets = PACKETS as u64;
    rep.work = stats.events;
    rep.checksum = Fold::new()
        .with(stats.events)
        .with(stats.packets_sent)
        .with(stats.packets_delivered)
        .with(got)
        .finish();
    let drops = rep.world_stats(&stats);
    rep.exact("sim_loss_share", 1.0 - got as f64 / packets as f64);
    rep.check(got == packets && drops == 0, || {
        format!("storm must be drop-free: {got}/{packets} delivered, {drops} drops")
    });
    rep.read_telemetry(w, tr);
}

/// One storm repetition on the engine `new` builds (engine
/// construction is part of set-up); the engine is handed back for
/// engine-specific reads.
fn storm<E: Engine>(seed: u64, tr: &mut Tracer, new: impl FnOnce() -> E) -> (Rep, E) {
    let mut rep = Rep::default();
    let mut clock = Clock::start();
    let s = tr.begin("setup");
    let mut w = new();
    let chain = build_chain(&mut w, CHAIN);
    let flows = plan(seed, PACKETS);
    tr.end(s);
    rep.end_setup(&mut clock);

    let s = tr.begin("run");
    let (stats, got) = drive(&mut w, &chain, &flows, tr);
    tr.end(s);
    rep.end_run(&mut clock);
    finish(&mut rep, &mut w, stats, got, tr);
    (rep, w)
}

pub fn chain(seed: u64, tr: &mut Tracer) -> Rep {
    storm(seed, tr, || World::new(seed)).0
}

/// Shards of the sharded storm: one per chain switch.
pub const SHARDS: usize = 8;

/// The sharded engine with sequential windows, so that the number
/// measures the program, not the host's thread scheduler.
pub fn sequential_shards(seed: u64) -> ShardedWorld {
    let mut w = ShardedWorld::new(seed, SHARDS);
    w.set_parallel(Some(false));
    w
}

pub fn sharded(seed: u64, tr: &mut Tracer) -> Rep {
    let (mut rep, w) = storm(seed, tr, || sequential_shards(seed));
    let counts = w.shard_event_counts();
    let busiest = counts.iter().copied().max().unwrap_or(1).max(1);
    rep.exact(
        "sim.shard.balance",
        counts.iter().sum::<u64>() as f64 / busiest as f64,
    );
    rep
}

/// The sharded engine must reproduce the single world's results: at a
/// seed without pins the check is one chain storm to compare with.
pub fn equals_chain(seed: u64, checksum: u64) -> Result<(), String> {
    let want = chain(seed, &mut Tracer::off()).checksum;
    if checksum == want {
        Ok(())
    } else {
        Err(format!(
            "sharded storm {checksum:#018x} differs from the chain storm {want:#018x}"
        ))
    }
}

pub fn attribute(m: &Values) -> Vec<(&'static str, f64)> {
    let mut rows = engine_rows(m);
    // Injected packets: every delivery that was not a wire's.
    let packets = m["sim.packets_delivered"] - m["sim.packets_sent"];
    rows.push(("packet.data_new_ns", packets));
    rows
}
