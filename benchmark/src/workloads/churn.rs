//! `flow_churn`: the incremental max-min solver under churn — thousands
//! of active flows on a k=16 fat-tree with completions, arrivals,
//! reroutes and a flapping trunk, each operation followed by an
//! aggregate rate query (the solve trigger). Zero packet events: every
//! packet-engine or control-plane optimisation must leave it unmoved.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dumbnet_sim::{EdgeId, FlowId, FlowSim};
use dumbnet_topology::{generators, spath, Route, Topology};
use dumbnet_types::{Bandwidth, HostId, SwitchId};
use dumbnet_workload::FlowMap;

use super::{Clock, Fold, Rep};
use crate::trace::Tracer;

/// Flows started before the churn loop.
pub const FLOWS: usize = 5_000;
/// Churn operations per repetition.
pub const OPS: usize = 100;
/// Fat-tree arity (1024 hosts at 8 per edge switch).
const K: usize = 16;

fn line_rate() -> Bandwidth {
    Bandwidth::gbps(10)
}

/// One planned flow slot: a primary and an alternate ECMP edge path.
struct Slot {
    primary: Vec<EdgeId>,
    alternate: Vec<EdgeId>,
    bytes: u64,
}

enum Op {
    /// Advance to the next flow completion.
    Advance,
    /// Start the next unused slot.
    Arrive,
    /// Move a running flow to its alternate (or back to its primary).
    Reroute { flow: usize, alternate: bool },
    /// Fail or restore the flapping trunk.
    Trunk { up: bool },
}

/// Everything the seed decides, resolved against the shared edge
/// enumeration: host pairs, ECMP route draws, flow sizes, which flows
/// get rerouted and which trunk flaps.
struct Plan {
    slots: Vec<Slot>,
    ops: Vec<Op>,
    flap: (SwitchId, SwitchId),
}

fn plan(seed: u64, topo: &Topology, map: &FlowMap, flows: usize, ops: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let hosts = topo.host_count() as u64;
    let arrivals = ops.div_ceil(4);
    let slots = (0..flows + arrivals)
        .map(|_| {
            let src = HostId(rng.gen_range(0..hosts));
            let dst = HostId((src.0 + rng.gen_range(1..hosts)) % hosts);
            let a = topo.host(src).expect("src host").attached.switch;
            let b = topo.host(dst).expect("dst host").attached.switch;
            let mut route = || {
                if a == b {
                    Route::new(vec![a]).expect("trivial route")
                } else {
                    spath::shortest_route(topo, a, b, &mut rng).expect("fat-tree is connected")
                }
            };
            let (r1, r2) = (route(), route());
            Slot {
                primary: map.path(src, dst, &r1).expect("primary path"),
                alternate: map.path(src, dst, &r2).expect("alternate path"),
                bytes: rng.gen_range(20_000_000..100_000_000u64),
            }
        })
        .collect();
    let mut started = flows;
    let ops = (0..ops)
        .map(|i| match i % 4 {
            0 => Op::Advance,
            1 => {
                started += 1;
                Op::Arrive
            }
            2 => Op::Reroute {
                flow: rng.gen_range(0..started),
                alternate: i % 8 == 2,
            },
            _ => Op::Trunk { up: i % 8 != 3 },
        })
        .collect();
    let trunks = map.edge_map().trunks().count();
    let flap = map
        .edge_map()
        .trunks()
        .nth(rng.gen_range(0..trunks))
        .expect("fat-tree has trunks")
        .0;
    Plan { slots, ops, flap }
}

struct Outcome {
    /// Σ of every queried aggregate rate, folded with the completions.
    rate_checksum: u64,
    finished: u64,
}

/// Replays a plan on a freshly mapped solver.
fn replay(fs: &mut FlowSim, map: &FlowMap, plan: &Plan, flows: usize, tr: &mut Tracer) -> Outcome {
    let s = tr.begin("sim.flowsim.load");
    let mut ids: Vec<FlowId> = plan.slots[..flows]
        .iter()
        .map(|slot| fs.start_flow(slot.primary.clone(), slot.bytes))
        .collect();
    tr.end(s);
    let mut rates = 0u64;
    for op in &plan.ops {
        match *op {
            Op::Advance => {
                let s = tr.begin("sim.flowsim.advance");
                if let Some(t) = fs.next_completion_time() {
                    fs.advance_to(t);
                }
                tr.end(s);
            }
            Op::Arrive => {
                let s = tr.begin("sim.flowsim.start");
                let slot = &plan.slots[ids.len()];
                ids.push(fs.start_flow(slot.primary.clone(), slot.bytes));
                tr.end(s);
            }
            Op::Reroute { flow, alternate } => {
                let s = tr.begin("sim.flowsim.reroute");
                let slot = &plan.slots[flow];
                let path = if alternate {
                    &slot.alternate
                } else {
                    &slot.primary
                };
                fs.reroute(ids[flow], path.clone());
                tr.end(s);
            }
            Op::Trunk { up } => {
                let s = tr.begin("sim.flowsim.capacity");
                if up {
                    map.restore_link(fs, plan.flap.0, plan.flap.1, line_rate());
                } else {
                    map.fail_link(fs, plan.flap.0, plan.flap.1);
                }
                tr.end(s);
            }
        }
        let s = tr.begin("sim.flowsim.rate_query");
        rates = rates.wrapping_add(fs.aggregate_rate(&ids).bits_per_sec());
        tr.end(s);
    }
    let finished = ids.iter().filter(|&&f| fs.finished_at(f).is_some()).count() as u64;
    Outcome {
        rate_checksum: rates,
        finished,
    }
}

pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut clock = Clock::start();
    let s = tr.begin("setup");
    let g = tr.begin("topology.generate");
    let topo = generators::fat_tree(K, 8, None).topology;
    tr.end(g);
    let mut fs = FlowSim::new();
    let m = tr.begin("workload.flowmap_build");
    let map = FlowMap::build(&mut fs, &topo, line_rate(), line_rate());
    tr.end(m);
    let p = tr.begin("workload.plan");
    let plan = plan(seed, &topo, &map, FLOWS, OPS);
    tr.end(p);
    tr.end(s);
    rep.end_setup(&mut clock);

    let s = tr.begin("run");
    let out = replay(&mut fs, &map, &plan, FLOWS, tr);
    let solver = fs.solver_stats();
    tr.end(s);
    rep.end_run(&mut clock);

    rep.work = OPS as u64;
    rep.checksum = Fold::new()
        .with(out.rate_checksum)
        .with(out.finished)
        .with(solver.solves)
        .with(solver.flows_resolved)
        .with(solver.edges_resolved)
        .finish();
    rep.check(solver.full_solves == 0, || {
        format!(
            "{} reference solves on the incremental path",
            solver.full_solves
        )
    });
    rep.exact("sim.events", 0.0);
    rep.exact("sim.flowsim.solves", solver.solves as f64);
    rep.exact("sim.flowsim.full_solves", solver.full_solves as f64);
    rep.exact("sim.flowsim.flows_resolved", solver.flows_resolved as f64);
    rep.exact("sim.flowsim.edges_resolved", solver.edges_resolved as f64);
    rep.exact(
        "sim.flowsim.max_component_flows",
        solver.max_component_flows as f64,
    );
    rep.exact(
        "sim.flowsim.flows_per_solve",
        solver.flows_resolved as f64 / solver.solves.max(1) as f64,
    );
    rep
}

/// Flows and operations of the reference-solver replay.
const CHECK_FLOWS: usize = 2_000;
const CHECK_OPS: usize = 20;

/// Replays a small churn twice — incrementally and with every solve
/// forced through the O(F·E) reference — and confirms the rates are
/// bit-identical. The workload's cross-check (its checksum plays no
/// part: the replay is a plan of its own).
pub fn reference_solver_check(seed: u64, _checksum: u64) -> Result<(), String> {
    let topo = generators::fat_tree(K, 8, None).topology;
    let run = |force_full: bool| {
        let mut fs = FlowSim::new();
        let map = FlowMap::build(&mut fs, &topo, line_rate(), line_rate());
        let plan = plan(seed, &topo, &map, CHECK_FLOWS, CHECK_OPS);
        fs.set_force_full_solve(force_full);
        let out = replay(&mut fs, &map, &plan, CHECK_FLOWS, &mut Tracer::off());
        (out.rate_checksum, out.finished, fs.solver_stats())
    };
    let (inc, full) = (run(false), run(true));
    if full.2.full_solves == 0 {
        return Err("forced-full replay never took the reference path".to_owned());
    }
    if (inc.0, inc.1, inc.2.solves) != (full.0, full.1, full.2.solves) {
        return Err(format!(
            "incremental and reference solver diverged: {:?} vs {:?}",
            (inc.0, inc.1, inc.2.solves),
            (full.0, full.1, full.2.solves)
        ));
    }
    Ok(())
}
