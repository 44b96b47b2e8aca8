//! Figure 11(d) (extension): controller failover time vs. takeover
//! timeout.
//!
//! The paper delegates controller fault tolerance to ZooKeeper ("the
//! master controller is elected from the controller cluster; the
//! topology information is stored in the distributed data store").
//! Our emulation replaces that black box with a term-fenced replicated
//! log, so we can measure what the paper never does: how long hosts
//! keep addressing a dead (or partitioned) leader before the fenced
//! election installs a successor and its hellos re-point them.
//!
//! Two scenarios per takeover-timeout setting:
//!
//! * `crash` — the leader process dies and never returns.
//! * `partition` — the leader is cut off by a [`PartitionSchedule`]
//!   and later healed; the healed ex-leader must observe the higher
//!   term and step down instead of splitting the brain.
//!
//! Output is JSON (one object, `series` keyed by scenario and
//! timeout). Every point also re-checks the leadership invariants, so
//! the figure doubles as a split-brain regression.

use dumbnet_controller::{Controller, ControllerConfig};
use dumbnet_core::{check_invariants, Fabric, FabricConfig};
use dumbnet_host::HostAgent;
use dumbnet_sim::{ChaosPlan, CrashSchedule, Engine, NodeAddr, PartitionSchedule};
use dumbnet_topology::generators;
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};

use crate::report::{json_document, json_object, Json};

/// The three controller hosts: leader on leaf 0, standbys on later
/// leaves (lowest surviving MAC campaigns first).
const CONTROLLERS: [u64; 3] = [0, 13, 25];

/// How the leader is removed from service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// The leader crashes and stays dead.
    Crash,
    /// The leader is partitioned away, then healed.
    Partition,
}

impl FailMode {
    fn label(self) -> &'static str {
        match self {
            FailMode::Crash => "crash",
            FailMode::Partition => "partition",
        }
    }
}

/// One measured point of the failover sweep.
#[derive(Debug, Clone)]
pub struct FailoverPoint {
    /// Scenario label (`crash` / `partition`).
    pub scenario: &'static str,
    /// Configured takeover timeout.
    pub takeover: SimDuration,
    /// Leader failure → every observer host addresses the new leader.
    pub recovery: Option<SimDuration>,
    /// Host id of the controller leading at the end of the run.
    pub new_leader: Option<u64>,
    /// Elections started across the cluster.
    pub elections: u64,
    /// Step-downs observed across the cluster (the healed ex-leader
    /// in the partition scenario contributes exactly one).
    pub step_downs: u64,
    /// Stale (fenced) control-plane updates hosts discarded.
    pub stale_updates: u64,
    /// Whether the leadership invariants (one leader per term,
    /// monotone terms, convergent logs) held at the end of the run.
    pub leadership_ok: bool,
}

fn controller_fabric(takeover: SimDuration) -> Fabric {
    let g = generators::testbed();
    let peers: Vec<MacAddr> = CONTROLLERS.iter().map(|&h| MacAddr::for_host(h)).collect();
    let cfg = FabricConfig {
        controllers: CONTROLLERS.iter().map(|&h| HostId(h)).collect(),
        controller: ControllerConfig {
            peers,
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: takeover,
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    Fabric::build_full(g.topology, cfg, HostAgent::new, |id, mut ccfg| {
        ccfg.is_leader = id == HostId(CONTROLLERS[0]);
        Controller::new(id, ccfg)
    })
    .expect("fabric builds")
}

/// MAC of the controller currently claiming leadership, excluding the
/// original leader. `None` until a successor promotes itself.
fn successor_mac(fabric: &Fabric) -> Option<(u64, MacAddr)> {
    CONTROLLERS[1..].iter().find_map(|&h| {
        fabric
            .controller(HostId(h))
            .filter(|c| c.stats().is_leader)
            .map(|_| (h, MacAddr::for_host(h)))
    })
}

/// Runs one failover scenario. Deterministic for a given mode/timeout.
#[must_use]
pub fn failover_point(mode: FailMode, takeover: SimDuration) -> FailoverPoint {
    let t_fail = SimTime::ZERO + SimDuration::from_millis(100);
    let heal_after = SimDuration::from_millis(600);
    let horizon = SimTime::ZERO + SimDuration::from_millis(1500);
    // Hosts on three different leaves watch for the successor's hello.
    let observers = [HostId(5), HostId(20), HostId(26)];

    let mut fabric = controller_fabric(takeover);
    let leader_addr = fabric
        .host_addr(HostId(CONTROLLERS[0]))
        .expect("leader host exists");
    let mut plan = ChaosPlan::seeded(11);
    match mode {
        FailMode::Crash => {
            plan = plan.with_crash(CrashSchedule {
                node: leader_addr,
                at: t_fail,
                restart_after: None,
            });
        }
        FailMode::Partition => {
            // Minority cell: the leader alone. Majority: every other
            // node, switches included, so only the leader's access
            // wire is severed.
            let rest: Vec<NodeAddr> = (0..fabric.world.node_count())
                .map(NodeAddr)
                .filter(|&n| n != leader_addr)
                .collect();
            plan = plan.with_partition(PartitionSchedule {
                cells: vec![
                    ("minority".into(), vec![leader_addr]),
                    ("majority".into(), rest),
                ],
                start: t_fail,
                heal_after,
            });
        }
    }
    plan.apply(&mut fabric.world);

    let step = SimDuration::from_millis(5);
    let mut t = SimTime::ZERO;
    let mut adopted_at: Option<SimTime> = None;
    let mut new_leader: Option<u64> = None;
    while t < horizon {
        t = t + step;
        fabric.run_until(t);
        if adopted_at.is_none() {
            if let Some((h, mac)) = successor_mac(&fabric) {
                let all_repointed = observers
                    .iter()
                    .all(|&o| fabric.host(o).is_some_and(|a| a.controller() == Some(mac)));
                if all_repointed {
                    adopted_at = Some(t);
                    new_leader = Some(h);
                }
            }
        }
    }
    if new_leader.is_none() {
        new_leader = successor_mac(&fabric).map(|(h, _)| h);
    }

    let (mut elections, mut step_downs) = (0u64, 0u64);
    for &h in &CONTROLLERS {
        if let Some(c) = fabric.controller(HostId(h)) {
            elections += c.stats().elections_started;
            step_downs += c.stats().step_downs;
        }
    }
    let stale_updates = (0..fabric.topology.host_count() as u64)
        .filter_map(|h| fabric.host(HostId(h)))
        .map(|a| a.stats().stale_ctrl_updates)
        .sum();
    FailoverPoint {
        scenario: mode.label(),
        takeover,
        recovery: adopted_at.map(|at| at.since(t_fail)),
        new_leader,
        elections,
        step_downs,
        stale_updates,
        leadership_ok: check_invariants(&fabric).leadership_ok(),
    }
}

const TITLE: &str = "controller failover time vs takeover timeout";
const SETUP: &str = "testbed, controllers on hosts 0/13/25, leader removed at 100 ms \
                     by crash or partition (healed at 700 ms)";

/// Figure 11(d): the failover sweep, as a JSON document.
#[must_use]
pub fn run_d(quick: bool) -> String {
    let timeouts_ms: &[u64] = if quick {
        &[100, 250]
    } else {
        &[50, 100, 250, 500]
    };
    let mut series = Vec::new();
    for &mode in &[FailMode::Crash, FailMode::Partition] {
        for &ms in timeouts_ms {
            let pt = failover_point(mode, SimDuration::from_millis(ms));
            series.push(json_object(&[
                ("scenario", Json::Str(pt.scenario)),
                (
                    "takeover_ms",
                    Json::Float(pt.takeover.as_secs_f64() * 1e3, 0),
                ),
                ("recovery_ms", Json::millis(pt.recovery)),
                ("new_leader", pt.new_leader.map_or(Json::Null, Json::Int)),
                ("elections", Json::Int(pt.elections)),
                ("step_downs", Json::Int(pt.step_downs)),
                ("stale_updates", Json::Int(pt.stale_updates)),
                ("leadership_ok", Json::Bool(pt.leadership_ok)),
            ]));
        }
    }
    json_document(
        &[
            ("figure", Json::Str("11d")),
            ("title", Json::Str(TITLE)),
            ("setup", Json::Str(SETUP)),
        ],
        &[("series", series)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_failover_recovers_to_lowest_mac_follower() {
        let pt = failover_point(FailMode::Crash, SimDuration::from_millis(100));
        assert_eq!(pt.new_leader, Some(13), "lowest live MAC must win");
        let recovery = pt.recovery.expect("hosts must re-point");
        assert!(
            recovery >= SimDuration::from_millis(100),
            "recovery cannot beat the takeover timeout: {recovery:?}"
        );
        assert!(
            recovery < SimDuration::from_millis(600),
            "recovery took {recovery:?}"
        );
        assert!(pt.elections >= 1);
        assert!(pt.leadership_ok, "split brain after leader crash");
    }

    #[test]
    fn partition_heals_without_split_brain() {
        let pt = failover_point(FailMode::Partition, SimDuration::from_millis(100));
        assert_eq!(pt.new_leader, Some(13));
        assert!(pt.recovery.is_some(), "partition failover did not finish");
        assert!(
            pt.step_downs >= 1,
            "healed ex-leader never stepped down from its stale term"
        );
        assert!(pt.leadership_ok, "split brain across the partition");
    }

    #[test]
    fn longer_timeout_means_slower_recovery() {
        let fast = failover_point(FailMode::Crash, SimDuration::from_millis(100));
        let slow = failover_point(FailMode::Crash, SimDuration::from_millis(500));
        let (f, s) = (
            fast.recovery.expect("fast run recovers"),
            slow.recovery.expect("slow run recovers"),
        );
        assert!(
            s > f,
            "takeover 500 ms ({s:?}) not slower than 100 ms ({f:?})"
        );
    }

    #[test]
    fn same_seed_failover_runs_are_identical() {
        // Deterministic-replay regression: the election machinery
        // (staggered takeover timers, flood TTLs, vote counting) must
        // not introduce any nondeterminism.
        use dumbnet_sim::{LinkStats, WireId, WorldStats};

        fn run_once() -> (WorldStats, Vec<LinkStats>) {
            let t_fail = SimTime::ZERO + SimDuration::from_millis(100);
            let mut fabric = controller_fabric(SimDuration::from_millis(100));
            let leader_addr = fabric.host_addr(HostId(0)).expect("leader host");
            let plan = ChaosPlan::seeded(11).with_crash(CrashSchedule {
                node: leader_addr,
                at: t_fail,
                restart_after: None,
            });
            plan.apply(&mut fabric.world);
            fabric.run_until(SimTime::ZERO + SimDuration::from_millis(800));
            let links = (0..fabric.world.wire_count())
                .map(|ix| fabric.world.link_stats(WireId::from_raw(ix)))
                .collect();
            (fabric.world.stats(), links)
        }

        let (world_a, links_a) = run_once();
        let (world_b, links_b) = run_once();
        assert_eq!(world_a, world_b, "WorldStats diverged between runs");
        assert_eq!(links_a, links_b, "LinkStats diverged between runs");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let doc = run_d(true);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"figure\": \"11d\""));
        assert!(doc.contains("\"scenario\": \"crash\""));
        assert!(doc.contains("\"scenario\": \"partition\""));
        assert_eq!(doc.matches("recovery_ms").count(), 4);
    }
}
