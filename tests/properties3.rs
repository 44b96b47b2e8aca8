//! Third property-test suite: fenced controller leadership under
//! randomized disruption. Arbitrary interleavings of leader/follower
//! crashes, restarts and partitions over a three-controller fabric
//! must never produce two leaders in the same term, non-monotone
//! replicated logs, or (after healing) divergent logs.

use proptest::prelude::*;

use dumbnet::controller::{Controller, ControllerConfig};
use dumbnet::fabric::chaos::check_invariants;
use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::HostAgent;
use dumbnet::sim::{ChaosPlan, CrashSchedule, Engine, NodeAddr, PartitionSchedule};
use dumbnet::topology::generators;
use dumbnet::types::{HostId, MacAddr, SimDuration, SimTime};

const CONTROLLERS: [u64; 3] = [0, 13, 25];

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn controller_fabric() -> Fabric {
    let g = generators::testbed();
    let cfg = FabricConfig {
        controllers: CONTROLLERS.iter().map(|&h| HostId(h)).collect(),
        controller: ControllerConfig {
            peers: CONTROLLERS.iter().map(|&h| MacAddr::for_host(h)).collect(),
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: SimDuration::from_millis(100),
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    Fabric::build_full(g.topology, cfg, HostAgent::new, |id, mut ccfg| {
        ccfg.is_leader = id == HostId(0);
        Controller::new(id, ccfg)
    })
    .expect("fabric builds")
}

/// One randomized disruption: who gets crashed (and for how long) and
/// who gets partitioned off (and for how long), at staggered times.
#[derive(Debug, Clone)]
struct Disruption {
    crash_victim: usize,
    crash_at: u64,
    down_for: u64,
    cut_victim: usize,
    cut_at: u64,
    cut_for: u64,
}

fn disruption() -> impl Strategy<Value = Disruption> {
    let crash = (0usize..3, 80u64..300, 100u64..500);
    let cut = (0usize..3, 80u64..300, 100u64..500);
    (crash, cut).prop_map(
        |((crash_victim, crash_at, down_for), (cut_victim, cut_at, cut_for))| Disruption {
            crash_victim,
            crash_at,
            down_for,
            cut_victim,
            cut_at,
            cut_for,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// No interleaving of crash/restart/partition over the controller
    /// cluster may ever yield two same-term leaders, a term-regressing
    /// log, or post-heal divergence.
    #[test]
    fn leadership_invariants_hold_under_random_disruption(
        seed in 0u64..1_000,
        d in disruption(),
    ) {
        let mut fabric = controller_fabric();
        let crash_addr = fabric
            .host_addr(HostId(CONTROLLERS[d.crash_victim]))
            .expect("controller host");
        let cut_addr = fabric
            .host_addr(HostId(CONTROLLERS[d.cut_victim]))
            .expect("controller host");
        let rest: Vec<NodeAddr> = (0..fabric.world.node_count())
            .map(NodeAddr)
            .filter(|&n| n != cut_addr)
            .collect();
        let plan = ChaosPlan::seeded(seed)
            .with_crash(CrashSchedule {
                node: crash_addr,
                at: at_ms(d.crash_at),
                restart_after: Some(SimDuration::from_millis(d.down_for)),
            })
            .with_partition(PartitionSchedule {
                cells: vec![
                    ("cut".into(), vec![cut_addr]),
                    ("rest".into(), rest),
                ],
                start: at_ms(d.cut_at),
                heal_after: SimDuration::from_millis(d.cut_for),
            });
        plan.apply(&mut fabric.world);
        let last = d.crash_at.max(d.cut_at) + d.down_for.max(d.cut_for);

        // Check the safety invariants *mid-disruption* too: unlike
        // liveness, "one leader per term" may never be violated, not
        // even transiently.
        let mut t = 0;
        while t < last + 800 {
            t += 50;
            fabric.run_until(at_ms(t));
            let report = check_invariants(&fabric);
            prop_assert!(
                report.duplicate_term_leaders.is_empty(),
                "two leaders in one term at {t} ms: {:?}",
                report.duplicate_term_leaders
            );
            prop_assert!(
                report.nonmonotone_logs.is_empty(),
                "term-regressing log at {t} ms: {:?}",
                report.nonmonotone_logs
            );
        }
        // After everything heals and settles, the full leadership suite
        // (including log convergence) and single live leadership hold.
        let report = check_invariants(&fabric);
        prop_assert!(
            report.leadership_ok(),
            "post-heal leadership violation: dup={:?} nonmono={:?} diverged={:?}",
            report.duplicate_term_leaders,
            report.nonmonotone_logs,
            report.divergent_log_pairs,
        );
        let leaders: Vec<u64> = CONTROLLERS
            .iter()
            .copied()
            .filter(|&h| {
                fabric
                    .controller(HostId(h))
                    .is_some_and(|c| c.stats().is_leader)
            })
            .collect();
        prop_assert_eq!(leaders.len(), 1, "settled leaders: {:?}", leaders);
    }
}
