//! `fabric_mix`: the composite users actually run (fig10/fig11 shape).
//! A fat-tree fabric with a preloaded controller and cold path caches;
//! every host opens several data streams to seeded peers at once, the
//! controller's query FIFO staggers the path replies (and so the
//! streams), the busiest aggregation–core trunk fails mid-run and later
//! recovers. Path service, host caches, failure flood + patch epoch and
//! steady forwarding all show up in one wall time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::agent::AppAction;
use dumbnet_host::HostAgent;
use dumbnet_sim::{Engine, WireId};
use dumbnet_topology::generators;
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime, SwitchId};

use super::{engine_rows, Clock, Fold, Rep};
use crate::trace::Tracer;
use crate::Values;

/// Fat-tree arity and hosts per edge switch.
pub const K: usize = 8;
pub const HOSTS_PER_EDGE: usize = 4;
/// Streams each host opens, and packets per stream (frozen: changing
/// either redefines the workload and its pin).
pub const STREAMS: usize = 4;
pub const PACKETS_PER_STREAM: u64 = 400;
const BYTES: usize = 1000;
const GAP: SimDuration = SimDuration(20_000);

const fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1_000_000)
}
/// All streams are requested at once; the controller's 50 µs/query FIFO
/// spreads the path replies over the following ≈ 90 ms.
const T_START: SimDuration = SimDuration(10_000_000);
const T_FAIL: SimTime = at_ms(20);
const T_RECOVER: SimTime = at_ms(35);
/// The run ends here; nothing may have been sent after `T_QUIET`.
const T_QUIET: SimTime = at_ms(130);
const T_END: SimTime = at_ms(150);
/// Bin of the recovery poll in the traced pass.
const BIN: SimDuration = SimDuration(100_000);

/// The aggregation–core trunk that carried the most packets so far
/// (first in link order on ties).
fn busiest_core_trunk<W: Engine>(
    fabric: &Fabric<W>,
    cores: &[SwitchId],
) -> ((SwitchId, SwitchId), WireId) {
    let mut best: Option<(u64, (SwitchId, SwitchId), WireId)> = None;
    for l in fabric.topology.links() {
        let (a, b) = (l.a.switch, l.b.switch);
        if !cores.contains(&a) && !cores.contains(&b) {
            continue;
        }
        let wire = fabric.trunk_wire(a, b).expect("trunk has a wire");
        let sent = fabric.world.link_stats(wire).sent;
        if best.is_none_or(|(s, _, _)| sent > s) {
            best = Some((sent, (a, b), wire));
        }
    }
    let (_, pair, wire) = best.expect("fat-tree has core trunks");
    (pair, wire)
}

pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = run_with(seed, tr, PACKETS_PER_STREAM);
    if tr.on() {
        // Slope: the same run with one packet per stream is path
        // service, cache fill and failover with no steady forwarding.
        let s = tr.begin("fabric.cold_rerun");
        let cold = run_with(seed, &mut Tracer::off(), 1);
        tr.end(s);
        rep.timed.push(("fabric.cold_ms", cold.wall_s * 1e3));
    }
    rep
}

fn run_with(seed: u64, tr: &mut Tracer, packets: u64) -> Rep {
    let mut rep = Rep::default();
    let mut clock = Clock::start();
    let s = tr.begin("setup");
    let g = tr.begin("topology.generate");
    let gen = generators::fat_tree(K, HOSTS_PER_EDGE, None);
    tr.end(g);
    let cores = gen.group("core").to_vec();
    let hosts = gen.topology.host_count() as u64;
    // The seed draws every stream's peer (never the sender itself, never
    // the controller, host 0) and seeds the engine.
    let p = tr.begin("workload.plan");
    let mut rng = StdRng::seed_from_u64(seed);
    let peers: Vec<[u64; STREAMS]> = (0..hosts)
        .map(|h| {
            std::array::from_fn(|_| loop {
                let dst = rng.gen_range(1..hosts);
                if dst != h {
                    break dst;
                }
            })
        })
        .collect();
    tr.end(p);
    let cfg = FabricConfig {
        seed,
        ..FabricConfig::default()
    };
    let b = tr.begin("core.fabric_build");
    let mut fabric = Fabric::build_with(gen.topology, cfg, |id, mut hc| {
        hc.actions = peers[id.get() as usize]
            .iter()
            .enumerate()
            .map(|(j, &dst)| AppAction::DataStream {
                at: T_START,
                dst: MacAddr::for_host(dst),
                flow: id.get() * STREAMS as u64 + j as u64,
                packets,
                bytes: BYTES,
                interval: GAP,
            })
            .collect();
        HostAgent::new(id, hc)
    })
    .expect("fabric builds");
    tr.end(b);
    tr.end(s);
    rep.end_setup(&mut clock);

    let s = tr.begin("run");
    let r = tr.begin("sim.run");
    fabric.run_until(T_FAIL);
    tr.end(r);
    let ((a, b), wire) = busiest_core_trunk(&fabric, &cores);
    fabric
        .schedule_link_failure(T_FAIL, a, b)
        .expect("trunk exists");
    fabric
        .schedule_link_recovery(T_RECOVER, a, b)
        .expect("trunk exists");
    // Failover time (paper Fig. 11): from the failure to the end of the
    // last bin in which the dead trunk still refuses packets, i.e. until
    // the last sender has moved off it. Polling changes no simulated
    // result, only host time, so it is confined to the traced pass.
    if tr.on() {
        let r = tr.begin("sim.run");
        let (mut t, mut seen, mut last_growth) = (T_FAIL, 0u64, T_FAIL);
        while t < T_RECOVER {
            t = t + BIN;
            fabric.run_until(t);
            let drops = fabric.world.link_stats(wire).drops_down;
            if drops > seen {
                (seen, last_growth) = (drops, t);
            }
        }
        tr.end(r);
        rep.exact("sim_recovery_ms", last_growth.since(T_FAIL).as_millis_f64());
    }
    let r = tr.begin("sim.run");
    fabric.run_until(T_QUIET);
    let quiet = fabric.world.stats();
    fabric.run_until(T_END);
    tr.end(r);
    let stats = fabric.world.stats();
    tr.end(s);
    rep.end_run(&mut clock);

    let sent = (hosts - 1) * STREAMS as u64 * packets;
    let (mut delivered, mut path_requests, mut queued, mut floods) = (0u64, 0u64, 0u64, 0u64);
    for h in 1..hosts {
        let st = fabric.host(HostId(h)).expect("host agent").stats();
        delivered += st.delivered.values().map(|&(pkts, _)| pkts).sum::<u64>();
        path_requests += st.path_requests;
        queued += st.queued_on_miss;
        floods += st.floods_sent;
    }
    let cstats = fabric.controller(HostId(0)).expect("controller").stats();
    let link = fabric.world.link_stats(wire);
    rep.work = stats.events;
    rep.checksum = Fold::new()
        .with(stats.events)
        .with(stats.packets_sent)
        .with(stats.packets_delivered)
        .with(delivered)
        .with(path_requests)
        .with(cstats.path_requests)
        .with(cstats.patch_floods)
        .with(link.drops_down)
        .with(wire.raw() as u64)
        .finish();
    rep.check(quiet.packets_sent == stats.packets_sent, || {
        format!(
            "streams still running at the end: {} packets sent in the last {} ms",
            stats.packets_sent - quiet.packets_sent,
            T_END.since(T_QUIET).as_millis_f64()
        )
    });
    rep.check(delivered <= sent && delivered * 10 >= sent * 9, || {
        format!("implausible delivery: {delivered} of {sent} data packets")
    });
    rep.check(cstats.patch_floods >= 1, || {
        format!(
            "failure and recovery must each flood a patch, saw {}",
            cstats.patch_floods
        )
    });
    rep.world_stats(&stats);
    rep.exact("sim_loss_share", 1.0 - delivered as f64 / sent as f64);
    rep.exact("host.path_requests", path_requests as f64);
    rep.exact("host.queued_on_miss", queued as f64);
    rep.exact("host.floods_sent", floods as f64);
    rep.exact("controller.path_requests", cstats.path_requests as f64);
    rep.exact("controller.patch_floods", cstats.patch_floods as f64);
    if let Some(snap) = rep.read_telemetry(&mut fabric.world, tr) {
        let s = tr.begin("telemetry.to_json");
        let doc = snap.to_json();
        tr.end(s);
        std::hint::black_box(doc.len());
    }
    rep
}

pub fn attribute(m: &Values) -> Vec<(&'static str, f64)> {
    let mut rows = engine_rows(m);
    rows.push(("topology.pathgraph_build_us", m["controller.path_requests"]));
    rows.push(("host.topocache_kpaths_us", m["host.path_requests"]));
    rows
}
