//! Integration tests for the batched, pipelined control plane
//! (DESIGN.md §9): coalesced patch-batch flooding, flush-timer delay
//! accounting, per-frame send counters, and windowed discovery.

use dumbnet::controller::ControllerConfig;
use dumbnet::fabric::{Fabric, FabricConfig};
use dumbnet::host::HostAgent;
use dumbnet::topology::generators;
use dumbnet::types::{HostId, SimDuration, SimTime};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn testbed_fabric(patch_delay_ms: u64) -> Fabric {
    let g = generators::testbed();
    let cfg = FabricConfig {
        controller: ControllerConfig {
            patch_delay: SimDuration::from_millis(patch_delay_ms),
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    Fabric::build(g.topology, cfg).expect("fabric builds")
}

/// The stage-2 processing delay is charged ONCE per patch event by the
/// coalescing flush timer — never once per recipient. Both observer
/// hosts must see the patch `patch_delay` after the controller learned
/// the event (plus wire/stack time), not `2 × patch_delay` for the
/// second recipient.
#[test]
fn patch_delay_charged_once_per_event_not_per_recipient() {
    const DELAY_MS: u64 = 5;
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let mut fabric = testbed_fabric(DELAY_MS);
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .expect("link exists");
    fabric.run_until(at_ms(400));

    let ctrl = fabric.controller(HostId(0)).expect("controller");
    let learned = ctrl
        .stats()
        .event_learned_at
        .first()
        .map(|&(_, at)| at)
        .expect("controller learned the event");
    let flood_at = learned + SimDuration::from_millis(DELAY_MS);

    // Two hosts at opposite ends of the fabric.
    let mut arrivals = Vec::new();
    for h in [1u64, 26] {
        let agent = fabric.host(HostId(h)).expect("host");
        let at = agent
            .stats()
            .patch_arrivals
            .iter()
            .map(|&(_, at)| at)
            .min()
            .unwrap_or_else(|| panic!("host {h} never received the patch"));
        arrivals.push(at);
        assert!(
            at >= flood_at,
            "host {h}: patch at {at} beat the flush timer ({flood_at})"
        );
        // Propagation after the flush is wire latency only — far below
        // a second charge of the processing delay.
        assert!(
            at < flood_at + SimDuration::from_millis(1),
            "host {h}: patch at {at} suggests the delay compounded \
             (flush at {flood_at})"
        );
    }
    // The recipients differ by propagation jitter only.
    let spread = if arrivals[0] > arrivals[1] {
        arrivals[0] - arrivals[1]
    } else {
        arrivals[1] - arrivals[0]
    };
    assert!(
        spread < SimDuration::from_millis(1),
        "per-recipient delay charging: spread {spread}"
    );
}

/// Send-counter semantics after the unification: `patches_sent` counts
/// frames (per recipient, per segment) like the hello/heartbeat
/// counters, `patch_floods` counts coalesced flush rounds.
#[test]
fn patch_counters_are_per_frame_and_per_flood() {
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let hosts = g.topology.host_count() as u64;
    let mut fabric = testbed_fabric(5);
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .expect("link exists");
    fabric.run_until(at_ms(400));
    let ctrl = fabric.controller(HostId(0)).expect("controller");
    let stats = ctrl.stats();
    assert_eq!(stats.patch_floods, 1, "one event, one coalesced flood");
    // One single-segment frame per host (all but the controller itself).
    assert_eq!(stats.patches_sent, hosts - 1);
}

/// Two link events inside one `patch_delay` window coalesce into a
/// single flood epoch; every host applies the whole epoch atomically.
#[test]
fn events_within_flush_window_coalesce_into_one_epoch() {
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let mut fabric = testbed_fabric(20);
    // Two failures 2 ms apart — both inside the 20 ms flush window.
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .expect("link exists");
    fabric
        .schedule_link_failure(at_ms(102), leaves[1], spines[0])
        .expect("link exists");
    fabric.run_until(at_ms(500));
    let ctrl = fabric.controller(HostId(0)).expect("controller");
    let stats = ctrl.stats();
    assert_eq!(
        stats.patch_floods, 1,
        "both events must ride one coalesced flood"
    );
    assert_eq!(ctrl.topo_version(), 3, "two deltas applied (preload v1)");
    // A far host received one batch carrying it to the final epoch.
    let agent = fabric.host(HostId(26)).expect("host");
    let astats = agent.stats();
    assert_eq!(astats.patch_batches_applied, 1);
    assert_eq!(agent.patches.version(), 3);
    assert_eq!(
        astats
            .patch_arrivals
            .iter()
            .map(|&(v, _)| v)
            .collect::<Vec<_>>(),
        vec![2, 3],
        "the batch must carry every version of the epoch"
    );
}

/// A `patch_batch_max` smaller than the entry count forces multi-segment
/// epochs on the wire; hosts must reassemble and still apply atomically.
#[test]
fn segmented_epochs_reassemble_end_to_end() {
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let cfg = FabricConfig {
        controller: ControllerConfig {
            patch_delay: SimDuration::from_millis(20),
            patch_batch_max: 1, // Every entry its own segment frame.
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    let hosts = g.topology.host_count() as u64;
    let mut fabric = Fabric::build(g.topology, cfg).expect("fabric builds");
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .expect("link exists");
    fabric
        .schedule_link_failure(at_ms(102), leaves[1], spines[0])
        .expect("link exists");
    fabric.run_until(at_ms(500));
    let ctrl = fabric.controller(HostId(0)).expect("controller");
    let stats = ctrl.stats();
    assert_eq!(stats.patch_floods, 1);
    // Two segment frames per recipient now.
    assert_eq!(stats.patches_sent, 2 * (hosts - 1));
    let agent = fabric.host(HostId(26)).expect("host");
    assert_eq!(agent.stats().patch_batches_applied, 1);
    assert_eq!(agent.patches.version(), 3);
}

/// Windowed discovery (the pipelined probe pump) must converge to the
/// exact same topology map as per-probe lockstep — only faster in
/// virtual time.
#[test]
fn windowed_discovery_matches_lockstep_map() {
    let discover = |window: usize| {
        let g = generators::fat_tree(4, 1, Some(16));
        let truth = g.topology.clone();
        let mut cfg = FabricConfig::default();
        cfg.controller.run_discovery = true;
        cfg.controller.discovery.max_ports = 16;
        cfg.controller.discovery.timeout = SimDuration::from_millis(50);
        cfg.controller.probe_interval = SimDuration::from_micros(33);
        cfg.controller.probe_window = window;
        let mut fabric = Fabric::build(g.topology, cfg).expect("fabric builds");
        fabric.run_until(at_ms(60_000));
        let ctrl = fabric.controller(HostId(0)).expect("controller");
        assert!(ctrl.ready(), "discovery (window {window}) did not finish");
        let found = ctrl.topology.as_ref().expect("topology");
        assert_eq!(found.switch_count(), truth.switch_count());
        assert_eq!(found.link_count(), truth.link_count());
        assert_eq!(found.host_count(), truth.host_count());
        let time = ctrl
            .stats()
            .discovery_time
            .expect("discovery time recorded");
        (ctrl.stats().probes_sent, time)
    };
    let (probes_lockstep, time_lockstep) = discover(1);
    let (probes_windowed, time_windowed) = discover(16);
    // Timeout-driven retries shift slightly under pipelining; the probe
    // totals must stay within 1% even though the map is identical.
    let diff = probes_lockstep.abs_diff(probes_windowed);
    assert!(
        diff * 100 <= probes_lockstep,
        "windowing changed the probe work: {probes_lockstep} vs {probes_windowed}"
    );
    assert!(
        time_windowed < time_lockstep,
        "window 16 must converge faster: {time_windowed} vs {time_lockstep}"
    );
}

/// Batching must not regress the end-to-end failover path: a stream
/// crossing a failed link still recovers (the fabric.rs failover test,
/// re-run with aggressive batching knobs).
#[test]
fn failover_still_works_with_aggressive_batching() {
    use dumbnet::host::agent::AppAction;
    use dumbnet::types::MacAddr;
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let cfg = FabricConfig {
        controller: ControllerConfig {
            patch_delay: SimDuration::from_millis(10),
            patch_batch_max: 1,
            probe_window: 8,
            ..ControllerConfig::default()
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
        if id == HostId(1) {
            hc.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 7,
                packets: 400,
                bytes: 1000,
                interval: SimDuration::from_micros(500),
            }];
        }
        HostAgent::new(id, hc)
    })
    .expect("fabric builds");
    fabric
        .schedule_link_failure(at_ms(100), leaves[0], spines[0])
        .expect("link exists");
    fabric.run_until(at_ms(400));
    let receiver = fabric.host(HostId(26)).expect("host");
    let &(pkts, _) = receiver.stats().delivered.get(&7).expect("flow delivered");
    assert!(pkts >= 360, "only {pkts}/400 delivered under batching");
}
