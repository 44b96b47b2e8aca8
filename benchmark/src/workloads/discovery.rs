//! `discovery_fat_tree`: windowed BFS topology discovery by the
//! controller over the emulated fabric — the `fig08::discover_windowed`
//! configuration, assembled here from `FabricConfig` so that set-up and
//! run are timed apart. Control plane only: no host data path, no flow
//! plane; the event queue holds far-future 50 ms timeouts.

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_telemetry::NodeKind;
use dumbnet_topology::{generators, Topology};
use dumbnet_types::{HostId, PortId, SimDuration, SimTime};

use super::{engine_rows, Clock, Fold, Rep};
use crate::trace::Tracer;
use crate::Values;

/// Fat-tree arity (5k²/4 switches, one host per edge switch).
pub const K: usize = 8;
/// Ports probed per switch (the paper's 64-port radix).
const MAX_PORTS: u8 = 64;
/// Probes in flight per pump tick (the best point of the fig08c sweep).
const WINDOW: usize = 16;

fn ends(a: PortId, b: PortId) -> (PortId, PortId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether the discovered map equals ground truth: same counts, every
/// link port-exact, every host on its true attachment.
fn exact(found: &Topology, truth: &Topology) -> bool {
    found.switch_count() == truth.switch_count()
        && found.link_count() == truth.link_count()
        && found.host_count() == truth.host_count()
        && found.links().all(|l| {
            truth
                .link_between(l.a.switch, l.b.switch)
                .is_some_and(|real| ends(l.a, l.b) == ends(real.a, real.b))
        })
        && truth.hosts().all(|h| {
            found
                .host_by_mac(h.mac)
                .is_some_and(|x| x.attached == h.attached)
        })
}

pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut clock = Clock::start();
    let s = tr.begin("setup");
    let g = tr.begin("topology.generate");
    let topo = generators::fat_tree(K, 1, Some(MAX_PORTS)).topology;
    tr.end(g);
    let truth = topo.clone();
    // The seed only seeds the engine. The controller stays on host 0:
    // at equal probe and event counts its position alone moves the host
    // cost by up to 45 % (0.81–1.20 s measured over six positions), which
    // would bury every other effect when seeds are compared.
    let ctrl = HostId(0);
    let mut cfg = FabricConfig {
        seed,
        controllers: vec![ctrl],
        ..FabricConfig::default()
    };
    cfg.controller.run_discovery = true;
    cfg.controller.discovery.max_ports = MAX_PORTS;
    cfg.controller.discovery.timeout = SimDuration::from_millis(50);
    cfg.controller.probe_interval = SimDuration::from_micros(33);
    cfg.controller.probe_window = WINDOW;
    let b = tr.begin("core.fabric_build");
    let mut fabric = Fabric::build(topo, cfg).expect("fabric builds");
    tr.end(b);
    tr.end(s);
    rep.end_setup(&mut clock);

    let s = tr.begin("run");
    // Run in 5 s chunks of virtual time until discovery quiesces.
    let mut horizon = SimTime::ZERO;
    loop {
        horizon = horizon + SimDuration::from_secs(5);
        let r = tr.begin("sim.run");
        fabric.run_until(horizon);
        tr.end(r);
        let ready = fabric.controller(ctrl).expect("controller").ready();
        if ready || horizon > SimTime::ZERO + SimDuration::from_secs(3_600) {
            break;
        }
    }
    let stats = fabric.world.stats();
    tr.end(s);
    rep.end_run(&mut clock);

    let node = fabric.controller(ctrl).expect("controller");
    let cstats = node.stats();
    let is_exact = node.topology.as_ref().is_some_and(|f| exact(f, &truth));
    let time = cstats.discovery_time.unwrap_or(SimDuration::ZERO);
    rep.work = cstats.probes_sent;
    rep.checksum = Fold::new()
        .with(cstats.probes_sent)
        .with(u64::from(is_exact))
        .with(time.nanos())
        .with(stats.events)
        .with(stats.packets_delivered)
        .finish();
    rep.check(is_exact, || {
        "discovered map differs from ground truth".to_owned()
    });
    rep.world_stats(&stats);
    rep.exact("sim_discovery_s", time.as_secs_f64());
    rep.exact("controller.probes_sent", cstats.probes_sent as f64);
    rep.exact(
        "controller.probes_per_link",
        cstats.probes_sent as f64 / truth.link_count() as f64,
    );
    if let Some(snap) = rep.read_telemetry(&mut fabric.world, tr) {
        rep.exact(
            "switch.id_replies",
            snap.sum_counters(NodeKind::Switch, "id_replies") as f64,
        );
    }
    rep
}

pub fn attribute(m: &Values) -> Vec<(&'static str, f64)> {
    let mut rows = engine_rows(m);
    rows.push(("controller.discovery_step_ns", m["controller.probes_sent"]));
    rows
}
