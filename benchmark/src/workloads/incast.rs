//! `hybrid_incast`: `fig14::incast_point(128, 64, false)` — a k=32
//! fat-tree (8192 hosts, 1280 switches) on the hybrid engine with a
//! 128-way incast and 64 background elephants in the flow plane, 48
//! packet-level mice with ECN flowlet routing and a mid-storm gray
//! trunk. The scale and memory workload.
//!
//! The driver lives in `dumbnet-bench` and pins its own seed (14), so
//! this workload is seed-independent until a later issue lifts the
//! driver into the benchmark. Its wall includes the fabric build —
//! users pay it on every run — and `setup_s` is measured by one
//! separate `Fabric::build_hybrid` of the same topology per repetition.

use dumbnet_bench::fig14;
use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_topology::generators;

use super::{Clock, Fold, Rep};
use crate::trace::Tracer;

const FANIN: usize = 128;
const BACKGROUND: usize = 64;

pub fn run(_seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut clock = Clock::start();
    let s = tr.begin("setup");
    let g = tr.begin("topology.generate");
    let topo = generators::fat_tree(fig14::K, fig14::HOSTS_PER_EDGE, None).topology;
    tr.end(g);
    let cfg = FabricConfig {
        seed: fig14::SEED,
        ..FabricConfig::default()
    };
    let b = tr.begin("core.fabric_build");
    let fabric = Fabric::build_hybrid(topo, cfg).expect("fat-tree fabric builds");
    tr.end(b);
    tr.end(s);
    rep.end_setup(&mut clock);
    let d = tr.begin("core.fabric_drop");
    drop(fabric);
    tr.end(d);

    let s = tr.begin("run");
    let pt = fig14::incast_point(FANIN, BACKGROUND, false);
    tr.end(s);
    rep.end_run(&mut clock);
    if tr.on() {
        // The run is one opaque call; the separate build of the same
        // fabric is the best outside estimate of its build share.
        let build_ms = tr.total_ns("core.fabric_build") / 1e6;
        rep.timed
            .push(("sim.hybrid.run_ms", rep.wall_s * 1e3 - build_ms));
    }

    rep.work = pt.solves;
    rep.checksum = Fold::new()
        .with(pt.storm_fct.nanos())
        .with(pt.mean_fct.nanos())
        .with(pt.mice_delivered)
        .with(pt.mice_marks)
        .with(pt.mice_echoes)
        .with(pt.solves)
        .with(pt.cap_events)
        .with(pt.ecn_flips)
        .finish();
    rep.check(pt.full_solves == 0, || {
        format!(
            "{} reference solves on the incremental path",
            pt.full_solves
        )
    });
    rep.check(pt.mice_marks == pt.mice_echoes, || {
        format!("{} ECN marks but {} echoes", pt.mice_marks, pt.mice_echoes)
    });
    rep.exact("sim_fct_ms", pt.storm_fct.as_millis_f64());
    rep.exact("sim.flowsim.solves", pt.solves as f64);
    rep.exact("sim.flowsim.full_solves", pt.full_solves as f64);
    rep.exact("sim.hybrid.cap_events", pt.cap_events as f64);
    rep.exact("sim.hybrid.ecn_flips", pt.ecn_flips as f64);
    rep.exact("ext.ecn_path_hops", pt.mice_echoes as f64);
    rep
}
