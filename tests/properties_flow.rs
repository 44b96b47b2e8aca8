//! Max-min solver properties (DESIGN.md §12): on arbitrary flow
//! networks under arbitrary churn, the incremental solver's allocation
//! must satisfy the max-min fairness characterization — every active
//! flow is rate-maximal at some saturated edge of its path — while
//! never oversubscribing an edge, and must be bit-identical to the
//! O(F·E) reference regardless of how solves interleave with updates.

use proptest::prelude::*;

use dumbnet::sim::{EdgeId, FlowId, FlowSim};
use dumbnet::types::Bandwidth;

/// One step of a random churn script. Indices are raw draws reduced
/// modulo the live edge/flow counts at apply time, so every generated
/// script is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow over the given edge indices (duplicates allowed —
    /// a flow may cross an edge twice and must be charged twice).
    Start { path: Vec<usize>, bytes: u64 },
    /// Move an existing flow onto a new path.
    Reroute { flow: usize, path: Vec<usize> },
    /// Rescale an edge (0 models a failed link).
    SetCap { edge: usize, mbps: u64 },
    /// Advance virtual time to the next completion, if any.
    Advance,
}

fn arb_path() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..64, 1..5)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_path(), 1u64..5_000_000).prop_map(|(path, bytes)| Op::Start { path, bytes }),
        2 => (0usize..64, arb_path()).prop_map(|(flow, path)| Op::Reroute { flow, path }),
        2 => (0usize..64, 0u64..=40).prop_map(|(edge, mbps)| Op::SetCap { edge, mbps }),
        1 => (0usize..1).prop_map(|_| Op::Advance),
    ]
}

fn arb_caps() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=40, 2..12)
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..40)
}

/// Solver state after a replay: the sim, its edges, and the live flows
/// with the edge indices of their current path.
type Replayed = (FlowSim, Vec<EdgeId>, Vec<(FlowId, Vec<usize>)>);

/// Applies one script step to `fs`, recording started flows and their
/// current edge indices in `flows`.
fn apply(fs: &mut FlowSim, edges: &[EdgeId], flows: &mut Vec<(FlowId, Vec<usize>)>, op: &Op) {
    let resolve = |path: &[usize]| -> (Vec<usize>, Vec<EdgeId>) {
        let ixs: Vec<usize> = path.iter().map(|&i| i % edges.len()).collect();
        let p = ixs.iter().map(|&i| edges[i]).collect();
        (ixs, p)
    };
    match op {
        Op::Start { path, bytes } => {
            let (ixs, p) = resolve(path);
            flows.push((fs.start_flow(p, *bytes), ixs));
        }
        Op::Reroute { flow, path } => {
            if !flows.is_empty() {
                let fx = flow % flows.len();
                let (ixs, p) = resolve(path);
                fs.reroute(flows[fx].0, p);
                flows[fx].1 = ixs;
            }
        }
        Op::SetCap { edge, mbps } => {
            fs.set_capacity(edges[edge % edges.len()], Bandwidth::mbps(*mbps));
        }
        Op::Advance => {
            if let Some(t) = fs.next_completion_time() {
                fs.advance_to(t);
            }
        }
    }
}

/// A solver over `caps` in the given mode, with its edges.
fn solver(caps: &[u64], check_full: bool, force_full: bool) -> (FlowSim, Vec<EdgeId>) {
    let mut fs = FlowSim::new();
    let edges = caps
        .iter()
        .map(|&c| fs.add_edge(Bandwidth::mbps(c)))
        .collect();
    fs.set_check_full_solve(check_full);
    fs.set_force_full_solve(force_full);
    (fs, edges)
}

/// Replays a churn script. `query_every` forces a solve after every op
/// (the densest possible dirty-set pattern); without it the script's
/// own `Advance` ops are the only intermediate solve triggers.
fn replay(
    caps: &[u64],
    script: &[Op],
    check_full: bool,
    force_full: bool,
    query_every: bool,
) -> Replayed {
    let (mut fs, edges) = solver(caps, check_full, force_full);
    let mut flows: Vec<(FlowId, Vec<usize>)> = Vec::new();
    for op in script {
        apply(&mut fs, &edges, &mut flows, op);
        if query_every {
            let ids: Vec<FlowId> = flows.iter().map(|(f, _)| *f).collect();
            let _ = fs.aggregate_rate(&ids);
        }
    }
    (fs, edges, flows)
}

/// Flow rates in bps, queried through the public surface (forces the
/// final solve). Finished flows read 0.
fn rates(fs: &mut FlowSim, flows: &[(FlowId, Vec<usize>)]) -> Vec<u64> {
    flows
        .iter()
        .map(|(f, _)| fs.flow_rate(*f).bits_per_sec())
        .collect()
}

/// Truncation slack for u64-bps comparisons between exactly-equal f64
/// shares, plus accumulated-sum tolerance; generous next to Mbps-scale
/// capacities.
const SLACK_BPS: u64 = 16;

proptest! {
    /// The incremental solver is bit-identical to the O(F·E) reference,
    /// no matter how solves interleave with topology and flow churn:
    /// lazy solving, solve-after-every-op, and forced full re-solves
    /// all land on the same allocation, completions and clock. The
    /// lazy run also carries the in-solver `check_full_solve` gate, so
    /// every intermediate solve is reference-checked too.
    #[test]
    fn incremental_matches_reference_under_churn(
        caps in arb_caps(),
        script in arb_script(),
    ) {
        let (mut lazy, _, flows) = replay(&caps, &script, true, false, false);
        let (mut dense, _, _) = replay(&caps, &script, false, false, true);
        let (mut full, _, _) = replay(&caps, &script, false, true, true);
        let want = rates(&mut full, &flows);
        prop_assert_eq!(&rates(&mut lazy, &flows), &want, "lazy vs full");
        prop_assert_eq!(&rates(&mut dense, &flows), &want, "dense vs full");
        for (f, _) in &flows {
            prop_assert_eq!(lazy.finished_at(*f), full.finished_at(*f));
            prop_assert_eq!(dense.finished_at(*f), full.finished_at(*f));
        }
        prop_assert_eq!(lazy.now(), full.now());
        prop_assert_eq!(dense.now(), full.now());
    }

    /// Max-min characterization: every active flow has a bottleneck —
    /// an edge on its path that is saturated and on which no other flow
    /// gets a higher rate. (Zero-capacity edges qualify trivially: the
    /// flow is stalled at rate 0 alongside everything else crossing
    /// them.)
    #[test]
    fn every_active_flow_is_bottlenecked(
        caps in arb_caps(),
        script in arb_script(),
    ) {
        let (mut fs, edges, flows) = replay(&caps, &script, false, false, false);
        let rate = rates(&mut fs, &flows);
        for (ix, (f, path)) in flows.iter().enumerate() {
            if fs.finished_at(*f).is_some() {
                continue;
            }
            let bottlenecked = path.iter().any(|&e| {
                let cap = fs.edge_capacity_bps(edges[e]);
                let saturated = fs.edge_load_bps(edges[e]) >= cap - cap * 1e-9 - 1.0;
                let maximal = flows.iter().enumerate().all(|(jx, (g, gpath))| {
                    fs.finished_at(*g).is_some()
                        || !gpath.contains(&e)
                        || rate[jx] <= rate[ix] + SLACK_BPS
                });
                saturated && maximal
            });
            prop_assert!(
                bottlenecked,
                "flow {} (rate {} bps, path {:?}) has no saturated edge where it is maximal",
                ix, rate[ix], path
            );
        }
    }

    /// Conservation: no edge is ever oversubscribed, and each edge's
    /// recorded load is exactly the sum of its member flows' rates
    /// (multiplicity included — a flow crossing an edge twice is
    /// charged twice).
    #[test]
    fn capacity_is_never_oversubscribed(
        caps in arb_caps(),
        script in arb_script(),
    ) {
        let (mut fs, edges, flows) = replay(&caps, &script, false, false, false);
        let rate = rates(&mut fs, &flows);
        for (e, &edge) in edges.iter().enumerate() {
            let cap = fs.edge_capacity_bps(edge);
            let load = fs.edge_load_bps(edge);
            prop_assert!(
                load <= cap + cap * 1e-9 + 1.0,
                "edge {e} oversubscribed: load {load} bps over capacity {cap} bps"
            );
            let member_sum: f64 = flows
                .iter()
                .enumerate()
                .filter(|(_, (f, _))| fs.finished_at(*f).is_none())
                .map(|(jx, (_, path))| {
                    let mult = path.iter().filter(|&&p| p == e).count() as f64;
                    #[allow(clippy::cast_precision_loss)]
                    let r = rate[jx] as f64;
                    r * mult
                })
                .sum();
            prop_assert!(
                (load - member_sum).abs() <= member_sum * 1e-9 + 64.0,
                "edge {e} load {load} bps diverges from member sum {member_sum} bps"
            );
        }
    }

    /// Edge loads are part of the bit-identity contract (the hybrid
    /// engine turns them into congestion marks), and the changed-edge
    /// drain is how it learns which ones to re-read: after every op,
    /// each edge's load equals the forced-full replay's bit for bit,
    /// and the drain is ascending, duplicate-free and names every edge
    /// whose load differs from what the previous drain left behind.
    #[test]
    fn edge_loads_match_reference_and_drains_cover_every_change(
        caps in arb_caps(),
        script in arb_script(),
    ) {
        let (mut inc, edges) = solver(&caps, false, false);
        let (mut full, _) = solver(&caps, false, true);
        let (mut inc_flows, mut full_flows) = (Vec::new(), Vec::new());
        let mut last = vec![0.0f64.to_bits(); edges.len()];
        for (step, op) in script.iter().enumerate() {
            apply(&mut inc, &edges, &mut inc_flows, op);
            apply(&mut full, &edges, &mut full_flows, op);
            let drained = inc.take_changed_edges();
            prop_assert!(
                drained.windows(2).all(|w| w[0] < w[1]),
                "step {}: drain {:?} is not strictly ascending", step, drained
            );
            for (e, &edge) in edges.iter().enumerate() {
                let load = inc.edge_load_bps(edge).to_bits();
                prop_assert_eq!(
                    load, full.edge_load_bps(edge).to_bits(),
                    "step {}: edge {} load diverged from the reference", step, e
                );
                prop_assert!(
                    load == last[e] || drained.contains(&edge),
                    "step {}: edge {} load moved but the drain {:?} omits it", step, e, drained
                );
                last[e] = load;
            }
            prop_assert!(inc.take_changed_edges().is_empty(), "step {}: drain refilled", step);
        }
    }
}

/// The scripts reach the warm path, not just the cold one: over 64
/// drawn scripts, each replayed under the `check_full_solve` gate with
/// a solve after every op, some rounds replay the last solve's
/// bottleneck order. A solver that always solved cold would pass every
/// property above and fail this.
#[test]
fn churn_scripts_replay_bottleneck_rounds() {
    use proptest::test_runner::{case_rng, fnv1a};
    let base = fnv1a("churn_scripts_replay_bottleneck_rounds");
    let (mut rounds, mut replayed) = (0, 0);
    for case in 0..64 {
        let mut rng = case_rng(base, case);
        let caps = arb_caps().generate(&mut rng);
        let script = arb_script().generate(&mut rng);
        let stats = replay(&caps, &script, true, false, true).0.solver_stats();
        rounds += stats.rounds;
        replayed += stats.rounds_replayed;
    }
    assert!(
        replayed > 0 && replayed < rounds,
        "{replayed} of {rounds} rounds replayed"
    );
}
