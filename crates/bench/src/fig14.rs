//! Figure 14 (extension): incast storms and elephant/mice mixes on the
//! hybrid flow/packet engine.
//!
//! The packet engine cannot reach data-center scale for long-running
//! elephants (§7.2 simulates seconds of 10 Gbps traffic packet by
//! packet); the flow engine alone cannot show what elephants *do to*
//! latency-sensitive packet traffic. This experiment runs both planes
//! coupled over one k=32 fat-tree (8192 hosts, 1280 switches):
//!
//! * an **incast storm**: `fanin` synchronized elephants from hosts
//!   spread across every pod, all into one victim host — the classic
//!   many-to-one pattern whose fan-in collapses the victim's access
//!   downlink ([flow plane], max-min fair);
//! * a **background elephant mix**: random cross-pod pairs keeping the
//!   core loaded, with one mid-storm trunk failure and recovery routed
//!   through the coupling boundary;
//! * **mice**: short packet-level streams riding the same fabric with
//!   [`EcnFlowletRouting`]. Edges the flow plane saturates assert
//!   external ECN on their wires, so mice crossing elephant-congested
//!   links get marked, their receivers echo, and their senders hop
//!   paths — the upward half of the coupling.
//!
//! Reported per fan-in: storm completion times, aggregate flow-plane
//! goodput, mice delivery and ECN activity, and the incremental
//! solver's work counters. Deterministic for a fixed seed; the work
//! checksum is pinned in CI. `--check-full-solve` re-solves every
//! update against the O(F·E) reference solver and asserts bit-identical
//! rates (slow; a debug gate, not the CI path).

use dumbnet_controller::Controller;
use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_ext::ecn::EcnFlowletRouting;
use dumbnet_host::agent::AppAction;
use dumbnet_host::{HostAgent, HostAgentConfig};
use dumbnet_sim::{EdgeId, Engine, FlowId, HybridWorld, World};
use dumbnet_topology::{generators, spath};
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{json_document, json_object, Json};

/// Fat-tree arity (8192 hosts, 1280 switches at 16 hosts per edge
/// switch).
pub const K: usize = 32;
/// Hosts attached to each edge switch.
pub const HOSTS_PER_EDGE: usize = 16;
/// Base seed for routing tie-breaks and the engine.
pub const SEED: u64 = 14;

/// Bytes each incast sender pushes at the victim.
const INCAST_BYTES: u64 = 25_000_000;
/// Bytes each background elephant moves cross-pod.
const BACKGROUND_BYTES: u64 = 50_000_000;
/// Packet-level mice streams per point.
const MICE: usize = 48;
/// The mice stream id (host delivery/ECN stats are keyed by flow).
const MICE_FLOW: u64 = 140;

/// One measured fan-in point.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastPoint {
    /// Synchronized incast senders.
    pub fanin: usize,
    /// Background cross-pod elephants.
    pub background: usize,
    /// Storm start → last incast elephant completion.
    pub storm_fct: SimDuration,
    /// Mean incast flow completion time.
    pub mean_fct: SimDuration,
    /// Aggregate flow-plane goodput over the storm, Gbps.
    pub agg_gbps: f64,
    /// Bytes the mice receivers accepted.
    pub mice_delivered: u64,
    /// ECN-marked packets the mice receivers saw.
    pub mice_marks: u64,
    /// ECN echoes the mice receivers sent back.
    pub mice_echoes: u64,
    /// Incremental re-solves performed by the flow solver.
    pub solves: u64,
    /// Full-reference solves (0 unless `--check-full-solve`).
    pub full_solves: u64,
    /// Capacity events that crossed the plane boundary.
    pub cap_events: u64,
    /// External ECN assert/clear flips pushed to the packet plane.
    pub ecn_flips: u64,
}

/// Deterministic host picker: walks a fixed stride, skipping the
/// controller, the victim and any already-claimed id.
struct HostPicker {
    hosts: usize,
    used: Vec<bool>,
}

impl HostPicker {
    fn new(hosts: usize, reserved: &[HostId]) -> HostPicker {
        let mut used = vec![false; hosts];
        for r in reserved {
            used[r.get() as usize] = true;
        }
        HostPicker { hosts, used }
    }

    fn claim(&mut self, want: usize) -> HostId {
        let mut ix = want % self.hosts;
        while self.used[ix] {
            ix = (ix + 1) % self.hosts;
        }
        self.used[ix] = true;
        HostId(ix as u64)
    }
}

/// The elephant ensemble of one point, resolved to flow-plane paths.
struct Elephants {
    /// `(path, bytes)` per incast sender, in sender order.
    incast: Vec<(Vec<EdgeId>, u64)>,
    /// Background cross-pod elephants.
    background: Vec<(Vec<EdgeId>, u64)>,
    /// A trunk on the first background elephant's route, failed
    /// mid-storm: `(a, b)` switch pair.
    failed_trunk: Option<(dumbnet_types::SwitchId, dumbnet_types::SwitchId)>,
}

fn plan_elephants(
    fabric: &Fabric<HybridWorld>,
    fanin: usize,
    background: usize,
    victim: HostId,
) -> Elephants {
    let topo = &fabric.topology;
    let hosts = topo.host_count();
    let mut picker = HostPicker::new(hosts, &[HostId(0), victim]);
    let switch_of = |h: HostId| topo.host(h).expect("host exists").attached.switch;
    let salted = |salt: u64| StdRng::seed_from_u64(SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Every incast route ends at the victim's switch: one distance map.
    let to_victim = spath::distances(topo, switch_of(victim));
    let mut incast = Vec::with_capacity(fanin);
    let stride = hosts / fanin.max(1);
    for i in 0..fanin {
        let src = picker.claim(2 + i * stride.max(1));
        let mut rng = salted(i as u64);
        let route = spath::shortest_route_over(topo, switch_of(src), &to_victim, &mut rng)
            .expect("fat-tree is connected");
        let path = fabric
            .flow_path(src, victim, &route)
            .expect("route maps onto flow edges");
        incast.push((path, INCAST_BYTES));
    }
    let mut failed_trunk = None;
    let mut bg = Vec::with_capacity(background);
    for i in 0..background {
        let src = picker.claim(37 + i * 97);
        let dst = picker.claim(71 + i * 193);
        let mut rng = salted(0x4000 + i as u64);
        let route = spath::shortest_route(topo, switch_of(src), switch_of(dst), &mut rng)
            .expect("fat-tree is connected");
        if failed_trunk.is_none() {
            let sw = route.switches();
            if sw.len() >= 2 {
                failed_trunk = Some((sw[0], sw[1]));
            }
        }
        let path = fabric
            .flow_path(src, dst, &route)
            .expect("route maps onto flow edges");
        bg.push((path, BACKGROUND_BYTES));
    }
    Elephants {
        incast,
        background: bg,
        failed_trunk,
    }
}

/// Runs one fan-in point. Deterministic per `(fanin, check_full_solve)`
/// — and `check_full_solve` only adds assertions, never changes rates.
#[must_use]
pub fn incast_point(fanin: usize, background: usize, check_full_solve: bool) -> IncastPoint {
    let g = generators::fat_tree(K, HOSTS_PER_EDGE, None);
    let victim = HostId(1);
    let victim_mac = MacAddr::for_host(victim.get());
    let hosts = g.topology.host_count();

    // Mice: even streams pile onto the victim (crossing its saturated
    // downlink), odd streams cross pods at random — both with
    // ECN-reactive flowlet routing.
    let mut mice_pairs: Vec<(HostId, HostId)> = Vec::with_capacity(MICE);
    {
        let mut picker = HostPicker::new(hosts, &[HostId(0), victim]);
        for i in 0..MICE {
            let src = picker.claim(5 + i * 61);
            let dst = if i % 2 == 0 {
                victim
            } else {
                picker.claim(11 + i * 149)
            };
            mice_pairs.push((src, dst));
        }
    }

    let cfg = FabricConfig {
        seed: SEED,
        ..FabricConfig::default()
    };
    let mice_sources: Vec<(HostId, HostId)> = mice_pairs.clone();
    let world = HybridWorld::new(World::new(cfg.seed));
    let mk_host = move |id, mut hc: HostAgentConfig| {
        if let Some(&(_, dst)) = mice_sources.iter().find(|&&(src, _)| src == id) {
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(30),
                dst: MacAddr::for_host(dst.get()),
                flow: MICE_FLOW,
                packets: 400,
                bytes: 600,
                interval: SimDuration::from_micros(50),
            }];
        }
        HostAgent::with_routing(
            id,
            hc,
            Box::new(EcnFlowletRouting::new(
                SimDuration::from_micros(500),
                SimDuration::from_micros(200),
            )),
        )
    };
    let mut fabric = Fabric::assemble(world, g.topology, cfg, &g.groups, mk_host, Controller::new)
        .expect("fat-tree fabric builds")
        .bind_flow_edges();
    let _ = victim_mac;
    if check_full_solve {
        fabric.world.flow_mut().set_check_full_solve(true);
    }

    let plan = plan_elephants(&fabric, fanin, background, victim);
    let mut incast_flows: Vec<FlowId> = Vec::with_capacity(fanin);
    let mut total_bits = 0u64;
    for (path, bytes) in &plan.incast {
        incast_flows.push(fabric.world.start_elephant(path.clone(), *bytes));
        total_bits += bytes * 8;
    }
    for (path, bytes) in &plan.background {
        fabric.world.start_elephant(path.clone(), *bytes);
        total_bits += bytes * 8;
    }
    // One mid-storm *gray* blackhole + heal on a background route — the
    // downward coupling under load. Injected loss (unlike an
    // administrative link-down) is silent in the packet plane: no
    // port-down event, no fabric-wide notification flood across 8192
    // hosts — only the hybrid boundary carries it into flow capacities.
    if let Some((a, b)) = plan.failed_trunk {
        let t_fail = SimTime::ZERO + SimDuration::from_millis(200);
        let t_heal = SimTime::ZERO + SimDuration::from_millis(600);
        let wire = fabric.trunk_wire(a, b).expect("trunk exists");
        fabric.world.schedule_loss(t_fail, wire, 1.0);
        fabric.world.schedule_loss(t_heal, wire, 0.0);
    }

    // Drive both planes until every elephant finishes (the mice wrap up
    // in the first 50 ms of virtual time).
    let horizon = SimTime::ZERO + SimDuration::from_secs(120);
    let step = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while fabric.world.active_elephants() > 0 && t < horizon {
        t = t + step;
        let _ = fabric.world.advance(t);
    }
    assert_eq!(fabric.world.active_elephants(), 0, "storm never drained");

    let mut last = SimTime::ZERO;
    let mut fct_sum = SimDuration::ZERO;
    for &f in &incast_flows {
        let done = fabric.world.finished_at(f).expect("incast flow finished");
        last = last.max(done);
        fct_sum = fct_sum + SimDuration::from_nanos(done.nanos());
    }
    let storm_fct = SimDuration::from_nanos(last.nanos());
    let mean_fct = SimDuration::from_nanos(fct_sum.nanos() / incast_flows.len().max(1) as u64);
    let full_span = fabric.now().as_secs_f64().max(1e-9);
    let agg_gbps = total_bits as f64 / full_span / 1e9;

    let (mut mice_delivered, mut mice_marks, mut mice_echoes) = (0u64, 0u64, 0u64);
    let receivers: std::collections::BTreeSet<HostId> =
        mice_pairs.iter().map(|&(_, dst)| dst).collect();
    for &dst in &receivers {
        if let Some(a) = fabric.host(dst) {
            let s = a.stats();
            mice_delivered += s.delivered.get(&MICE_FLOW).map_or(0, |&(_, b)| b);
            mice_marks += s.ecn_marked.get(&MICE_FLOW).copied().unwrap_or(0);
        }
    }
    // Echoes are counted where they land: at the mice *senders*, whose
    // routing functions they nudge onto different paths.
    for &(src, _) in &mice_pairs {
        if let Some(a) = fabric.host(src) {
            mice_echoes += a.stats().ecn_echoes;
        }
    }
    let solver = fabric.world.solver_stats();
    let hybrid = fabric.world.hybrid_stats();
    IncastPoint {
        fanin,
        background,
        storm_fct,
        mean_fct,
        agg_gbps,
        mice_delivered,
        mice_marks,
        mice_echoes,
        solves: solver.solves,
        full_solves: solver.full_solves,
        cap_events: hybrid.cap_events,
        ecn_flips: hybrid.ecn_mark_flips,
    }
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// One point per fan-in degree.
    pub points: Vec<IncastPoint>,
}

/// Runs the sweep; `quick` keeps two fan-ins (the CI gate),
/// `check_full_solve` cross-checks every re-solve against the reference
/// solver.
#[must_use]
pub fn sweep(quick: bool, check_full_solve: bool) -> Fig14 {
    let fanins: &[usize] = if quick {
        &[32, 96]
    } else {
        &[32, 64, 128, 256]
    };
    let points = fanins
        .iter()
        .map(|&f| incast_point(f, f / 2, check_full_solve))
        .collect();
    Fig14 { points }
}

const TITLE: &str = "incast storms and elephant/mice mixes on the hybrid flow/packet engine";
const SETUP: &str = "k=32 fat-tree (8192 hosts), flow-plane incast + background elephants \
                     with a mid-storm gray trunk blackhole, packet-plane mice with ECN \
                     flowlet routing";

impl Fig14 {
    /// Deterministic work fingerprint: completion times, mice bytes and
    /// ECN activity, and boundary-event counts of every point. Same
    /// seed, same code ⇒ same checksum (the CI gate). Independent of
    /// `--check-full-solve` (which must not change any rate).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.points
            .iter()
            .map(|pt| {
                (pt.storm_fct.nanos() / 1_000)
                    .wrapping_add((pt.mean_fct.nanos() / 1_000).wrapping_mul(3))
                    .wrapping_add(pt.mice_delivered.wrapping_mul(7))
                    .wrapping_add(pt.mice_marks.wrapping_mul(31))
                    .wrapping_add(pt.mice_echoes.wrapping_mul(127))
                    .wrapping_add(pt.cap_events.wrapping_mul(8191))
                    .wrapping_add(pt.ecn_flips.wrapping_mul(131_071))
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// The JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let series = self.points.iter().map(|pt| {
            json_object(&[
                ("fanin", Json::Int(pt.fanin as u64)),
                ("background", Json::Int(pt.background as u64)),
                ("storm_fct_ms", Json::millis(Some(pt.storm_fct))),
                ("mean_fct_ms", Json::millis(Some(pt.mean_fct))),
                ("agg_gbps", Json::Float(pt.agg_gbps, 3)),
                ("mice_delivered", Json::Int(pt.mice_delivered)),
                ("mice_marks", Json::Int(pt.mice_marks)),
                ("mice_echoes", Json::Int(pt.mice_echoes)),
                ("solves", Json::Int(pt.solves)),
                ("full_solves", Json::Int(pt.full_solves)),
                ("cap_events", Json::Int(pt.cap_events)),
                ("ecn_flips", Json::Int(pt.ecn_flips)),
            ])
        });
        json_document(
            &[
                ("figure", Json::Str("14")),
                ("title", Json::Str(TITLE)),
                ("setup", Json::Str(SETUP)),
                ("checksum", Json::Int(self.checksum())),
            ],
            &[("series", series.collect())],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small-fan-in point end to end on the full 8192-host fabric:
    /// the storm drains, fan-in sharing shows up in the completion
    /// times, and the coupling boundary carried both fault and ECN
    /// traffic. Run twice for the same-seed determinism regression.
    #[test]
    fn incast_point_is_deterministic_and_coupled() {
        let pt = incast_point(32, 16, false);
        assert!(pt.storm_fct >= pt.mean_fct);
        assert!(pt.mice_delivered > 0, "mice starved");
        assert!(
            pt.mice_marks > 0,
            "flow-plane congestion never marked a mouse"
        );
        assert!(pt.cap_events >= 2, "trunk fail/heal missed the flow plane");
        assert!(pt.ecn_flips > 0, "no external ECN asserted");
        assert!(pt.full_solves == 0);
        let again = incast_point(32, 16, false);
        assert_eq!(pt, again, "same-seed runs diverged");
    }

    /// The `--check-full-solve` debug mode must change nothing but the
    /// full-solve counter: every incremental allocation is re-derived
    /// by the reference solver and compared bit-for-bit inside the
    /// flow simulator.
    #[test]
    fn checked_mode_matches_unchecked() {
        let free = incast_point(32, 16, false);
        let checked = incast_point(32, 16, true);
        assert!(checked.full_solves > 0, "reference solver never consulted");
        let mut masked = checked.clone();
        masked.full_solves = 0;
        assert_eq!(free, masked, "--check-full-solve changed results");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let fig = Fig14 {
            points: vec![IncastPoint {
                fanin: 32,
                background: 16,
                storm_fct: SimDuration::from_millis(900),
                mean_fct: SimDuration::from_millis(500),
                agg_gbps: 7.5,
                mice_delivered: 1000,
                mice_marks: 40,
                mice_echoes: 40,
                solves: 120,
                full_solves: 0,
                cap_events: 4,
                ecn_flips: 6,
            }],
        };
        let doc = fig.to_json();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"figure\": \"14\""));
        assert!(doc.contains(&format!("\"checksum\": {}", fig.checksum())));
    }
}
