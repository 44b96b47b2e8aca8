//! Figure 11(c) (extension): failure recovery time vs. packet-loss
//! rate.
//!
//! The paper's Figure 11(b) measures recovery from one clean link
//! failure. This extension repeats that experiment on a *lossy* fabric:
//! every wire drops packets with probability `p`, so failure
//! notifications, host floods, topology patches, and path replies are
//! all at risk. The loss-tolerant control plane (redundant flood
//! rounds, path-request retries, replication re-sends) is what keeps
//! the recovery time bounded as `p` grows.
//!
//! Output is JSON (one object, `series` keyed by loss rate) so plots
//! can be regenerated without parsing tables.

use dumbnet_controller::Controller;
use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_sim::{ChaosPlan, Engine, ShardedWorld, WireId};
use dumbnet_telemetry::NodeKind;
use dumbnet_topology::generators::Generated;
use dumbnet_types::SimDuration;

use crate::recovery;
use crate::report::{json_document, json_object, Json};

/// One measured point of the loss sweep.
#[derive(Debug, Clone)]
pub struct ChaosRecoveryPoint {
    /// Per-wire drop probability.
    pub loss: f64,
    /// Failure → ≥80 % throughput, if recovered inside the window.
    pub outage: Option<SimDuration>,
    /// Fault-injected drops across the whole run.
    pub drops_loss: u64,
    /// Redundant host-flood rounds sent (the loss countermeasure).
    pub floods_rebroadcast: u64,
    /// Mean goodput before the failure, Mbps.
    pub baseline_mbps: f64,
}

/// Runs the Figure 11(b) stream-through-failure experiment with uniform
/// per-wire loss `p` injected on every wire. Deterministic per `p`.
#[must_use]
pub fn chaos_recovery_point(p: f64) -> ChaosRecoveryPoint {
    chaos_recovery_point_sharded(p, 1)
}

/// [`chaos_recovery_point`] with an engine choice: `shards <= 1` runs
/// the classic single world, larger values run the sharded PDES engine
/// (pod-unaware testbed, so the BFS partition). Results are identical
/// at any shard count — that is the engine's determinism contract.
#[must_use]
pub fn chaos_recovery_point_sharded(p: f64, shards: u32) -> ChaosRecoveryPoint {
    let mut cfg = FabricConfig {
        trunk: recovery::trunk(),
        ..FabricConfig::default()
    };
    cfg.switch.detection_delay = SimDuration::from_millis(30);
    let (cfg, host) = (&cfg, recovery::stream_host);
    if shards <= 1 {
        lossy_point(p, |g| Fabric::build_with(g.topology, cfg.clone(), host))
    } else {
        lossy_point(p, |g| {
            let world = ShardedWorld::new(cfg.seed, shards as usize);
            let (topo, cfg) = (g.topology, cfg.clone());
            Fabric::assemble(world, topo, cfg, &g.groups, host, Controller::new)
        })
    }
}

/// One point on the fabric `build` makes: uniform loss `p` on every
/// wire (trunk and access alike — data, notifications, and patches all
/// face the same odds), then the spine cut. Seed 12: under the
/// per-(wire, direction) fault streams, seed 11 drops the sender's
/// single flooded controller hello at p ≥ 0.05, so the stream never
/// starts and the figure would measure bootstrap fragility instead of
/// recovery under loss.
fn lossy_point<W: Engine>(
    p: f64,
    build: impl Fn(Generated) -> dumbnet_types::Result<Fabric<W>>,
) -> ChaosRecoveryPoint {
    let (mut fabric, curve) = recovery::spine_cut(|g| {
        let mut fabric = build(g).expect("fabric builds");
        let mut plan = ChaosPlan::seeded(12);
        for ix in 0..fabric.world.wire_count() {
            plan = plan.with_link_fault(WireId::from_raw(ix), p);
        }
        plan.apply(&mut fabric.world);
        fabric
    });
    // Aggregate over the telemetry snapshot instead of poking each
    // agent: every host publishes `floods_rebroadcast` under
    // `NodeKind::Host` and the engine publishes the fault-injection
    // drop counter under `NodeKind::World`.
    let snap = fabric.telemetry_snapshot();
    let floods = snap.counters_by_node(NodeKind::Host, "floods_rebroadcast");
    let floods = floods.iter().filter(|(node, _)| *node != 0);
    ChaosRecoveryPoint {
        loss: p,
        outage: crate::fig11::outage(&curve),
        drops_loss: snap.counter(NodeKind::World, 0, "drops_loss"),
        floods_rebroadcast: floods.map(|(_, v)| v).sum(),
        baseline_mbps: curve.baseline(),
    }
}

const TITLE: &str = "failure recovery time vs packet-loss rate";
const SETUP: &str = "testbed, 480 Mbps stream, one spine-leaf cut at 200 ms, uniform per-wire loss";

/// Figure 11(c): the loss sweep, as a JSON document, on the engine
/// selected by `shards` (`<= 1` = the classic single world). The document
/// is identical at any shard count.
#[must_use]
pub fn run_c_sharded(quick: bool, shards: u32) -> String {
    let rates: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.02, 0.05, 0.08, 0.10]
    };
    let series = rates.iter().map(|&p| {
        let pt = chaos_recovery_point_sharded(p, shards);
        json_object(&[
            ("loss", Json::Float(pt.loss, 3)),
            ("recovery_ms", Json::millis(pt.outage)),
            ("recovered", Json::Bool(pt.outage.is_some())),
            ("drops_loss", Json::Int(pt.drops_loss)),
            ("floods_rebroadcast", Json::Int(pt.floods_rebroadcast)),
            ("baseline_mbps", Json::Float(pt.baseline_mbps, 1)),
        ])
    });
    json_document(
        &[
            ("figure", Json::Str("11c")),
            ("title", Json::Str(TITLE)),
            ("setup", Json::Str(SETUP)),
        ],
        &[("series", series.collect())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_point_recovers() {
        let pt = chaos_recovery_point(0.0);
        assert_eq!(pt.drops_loss, 0);
        assert!(pt.outage.is_some(), "no-loss run must recover");
        assert!(pt.baseline_mbps > 100.0);
    }

    #[test]
    fn lossy_point_still_recovers_and_reports_drops() {
        let pt = chaos_recovery_point(0.05);
        assert!(pt.drops_loss > 0, "5% loss dropped nothing");
        assert!(
            pt.outage.is_some(),
            "control plane did not recover under 5% loss"
        );
        assert!(pt.floods_rebroadcast > 0, "no redundant flood rounds ran");
    }

    #[test]
    fn same_seed_chaos_runs_are_identical() {
        // Determinism regression for the hot-path overhaul: the calendar
        // event queue, the zero-copy path cursor and the route/graph
        // caches must not make results depend on anything but the seed.
        // Two full chaos runs must agree on every world counter and every
        // per-wire counter.
        use dumbnet_sim::{LinkStats, WorldStats};
        use dumbnet_topology::generators;
        use dumbnet_types::SimTime;

        fn run_once(p: f64) -> (WorldStats, Vec<LinkStats>) {
            let g = generators::testbed();
            let spines = g.group("spine").to_vec();
            let leaves = g.group("leaf").to_vec();
            let mut fabric =
                Fabric::build_with(g.topology, FabricConfig::default(), |id, mut hc| {
                    if id.get() == 1 {
                        hc.actions = vec![recovery::stream(26, 5_000, 1_200, 20)];
                    }
                    dumbnet_host::HostAgent::new(id, hc)
                })
                .expect("fabric builds");
            let mut plan = ChaosPlan::seeded(11);
            for ix in 0..fabric.world.wire_count() {
                plan = plan.with_link_fault(WireId::from_raw(ix), p);
            }
            plan.apply(&mut fabric.world);
            fabric
                .schedule_link_failure(
                    SimTime::ZERO + SimDuration::from_millis(200),
                    leaves[0],
                    spines[0],
                )
                .expect("link exists");
            fabric.run_until(SimTime::ZERO + SimDuration::from_millis(500));
            let links = (0..fabric.world.wire_count())
                .map(|ix| fabric.world.link_stats(WireId::from_raw(ix)))
                .collect();
            (fabric.world.stats(), links)
        }

        let (world_a, links_a) = run_once(0.05);
        let (world_b, links_b) = run_once(0.05);
        assert_eq!(world_a, world_b, "WorldStats diverged between runs");
        assert_eq!(links_a, links_b, "LinkStats diverged between runs");
        assert!(world_a.drops_loss > 0, "chaos plan injected no loss");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let doc = run_c_sharded(true, 1);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"figure\": \"11c\""));
        assert!(doc.contains("\"loss\": 0.050"));
        assert_eq!(doc.matches("recovery_ms").count(), 2);
    }
}
