//! Figure 8: topology discovery time.
//!
//! (a) vs. network size, for fat-trees and cube meshes with the
//! controller at a corner or the center ("the network size is the
//! primary contributing factor to the discovery time, while the topology
//! and the location of the controller both seem less important");
//! (b) vs. per-switch port density on a fixed cube (quadratic trend,
//! matching the O(N·P²) probe complexity).
//!
//! Discovery runs over the real emulated fabric: the controller node
//! paces probes at its configured processing rate (the §7.2.1
//! bottleneck), probes traverse emulated switches, and replies come back
//! as packets.

use std::collections::BTreeMap;

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_sim::Engine;
use dumbnet_topology::{generators, Topology};
use dumbnet_types::{HostId, SimDuration, SimTime, SwitchId};

use crate::report::{f, Report};

/// One measured discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryPoint {
    /// Scenario label.
    pub label: String,
    /// Switch count.
    pub switches: usize,
    /// Probes the controller transmitted.
    pub probes: u64,
    /// Virtual time from first probe to quiescence.
    pub time: SimDuration,
    /// Whether the discovered structure matched ground truth exactly.
    pub exact: bool,
}

/// Runs one discovery experiment on `topo` with the controller at
/// `ctrl`, probing up to `max_ports` ports per switch in paper-exact
/// lockstep (probe window 1).
#[must_use]
pub fn discover(topo: Topology, ctrl: HostId, max_ports: u8, label: &str) -> DiscoveryPoint {
    discover_full(topo, ctrl, max_ports, label, None, 1)
}

/// Like [`discover`] with a pipelined probe window: up to `window`
/// probes in flight per pump tick (DESIGN.md §9). Window 1 is the
/// paper's per-probe lockstep.
#[must_use]
pub fn discover_windowed(
    topo: Topology,
    ctrl: HostId,
    max_ports: u8,
    label: &str,
    window: usize,
) -> DiscoveryPoint {
    discover_full(topo, ctrl, max_ports, label, None, window)
}

fn discover_full(
    topo: Topology,
    ctrl: HostId,
    max_ports: u8,
    label: &str,
    hint: Option<Topology>,
    window: usize,
) -> DiscoveryPoint {
    discover_full_sharded(topo, ctrl, max_ports, label, hint, window, 1)
}

/// Like [`discover_full`] with an engine choice: `shards <= 1` runs the
/// classic single world, larger values the sharded PDES engine (BFS
/// partition; the discovery topologies carry no pod groups here).
/// Results are identical at any shard count.
#[allow(clippy::too_many_arguments)]
fn discover_full_sharded(
    topo: Topology,
    ctrl: HostId,
    max_ports: u8,
    label: &str,
    hint: Option<Topology>,
    window: usize,
    shards: u32,
) -> DiscoveryPoint {
    let truth = topo.clone();
    let mut cfg = FabricConfig {
        controllers: vec![ctrl],
        ..FabricConfig::default()
    };
    cfg.controller.run_discovery = true;
    cfg.controller.discovery.max_ports = max_ports;
    cfg.controller.discovery.timeout = SimDuration::from_millis(50);
    cfg.controller.discovery.hint = hint;
    cfg.controller.probe_interval = SimDuration::from_micros(33);
    cfg.controller.probe_window = window;
    if shards > 1 {
        let fabric = Fabric::build_sharded(topo, cfg, &BTreeMap::new(), shards)
            .expect("sharded fabric builds");
        return finish_discovery(fabric, &truth, ctrl, label);
    }
    let fabric = Fabric::build(topo, cfg).expect("fabric builds");
    finish_discovery(fabric, &truth, ctrl, label)
}

/// Drives an already built discovery fabric to quiescence and scores
/// the discovered map against ground truth.
fn finish_discovery<W: Engine>(
    mut fabric: Fabric<W>,
    truth: &Topology,
    ctrl: HostId,
    label: &str,
) -> DiscoveryPoint {
    // Run in chunks until discovery quiesces (cap at 1 virtual hour).
    let mut horizon = SimTime::ZERO;
    loop {
        horizon = horizon + SimDuration::from_secs(5);
        fabric.run_until(horizon);
        let ctrl_node = fabric.controller(ctrl).expect("controller");
        if ctrl_node.ready() || horizon > SimTime::ZERO + SimDuration::from_secs(3_600) {
            break;
        }
    }
    let ctrl_node = fabric.controller(ctrl).expect("controller");
    let found = ctrl_node.topology.as_ref();
    let exact = found.is_some_and(|found| {
        found.switch_count() == truth.switch_count()
            && found.link_count() == truth.link_count()
            && found.host_count() == truth.host_count()
            && found.links().all(|l| {
                truth
                    .link_between(l.a.switch, l.b.switch)
                    .is_some_and(|real| {
                        let f = if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) };
                        let r = if real.a <= real.b {
                            (real.a, real.b)
                        } else {
                            (real.b, real.a)
                        };
                        f == r
                    })
            })
            && truth.hosts().all(|h| {
                found
                    .host_by_mac(h.mac)
                    .is_some_and(|x| x.attached == h.attached)
            })
    });
    DiscoveryPoint {
        label: label.to_owned(),
        switches: truth.switch_count(),
        probes: ctrl_node.stats().probes_sent,
        time: ctrl_node
            .stats()
            .discovery_time
            .unwrap_or(SimDuration::ZERO),
        exact,
    }
}

/// A host on the given switch (requires ≥1 host per switch, as the cube
/// generator provides).
fn host_on(topo: &Topology, sw: SwitchId) -> HostId {
    topo.hosts_on(sw)
        .next()
        .map(|(_, h)| h)
        .expect("switch has a host")
}

/// Figure 8(a): discovery time vs. network size, on the engine selected
/// by `shards` (`<= 1` = the classic single world). The figure is
/// identical at any shard count; only the wall-clock cost of producing
/// it changes.
#[must_use]
pub fn run_a_sharded(quick: bool, shards: u32) -> Report {
    let max_ports: u8 = if quick { 16 } else { 64 };
    let disc = |topo: Topology, ctrl: HostId, label: &str| {
        discover_full_sharded(topo, ctrl, max_ports, label, None, 1, shards)
    };
    let mut r = Report::new("Figure 8(a) — discovery time vs. network size");
    r.note(format!(
        "single controller, {max_ports}-port probing, 33 µs/probe controller CPU"
    ));
    r.note("paper: ~70 s at 500 switches × 64 ports; linear in switch count;");
    r.note("topology & controller placement secondary.");
    r.header(["scenario", "switches", "probes", "time (s)", "map"]);

    let mut points = Vec::new();
    // The testbed first (§7.2.1 reports 3–5 s there).
    points.push(disc(
        generators::testbed().topology,
        HostId(0),
        "testbed (leaf-spine)",
    ));
    let ks: &[usize] = if quick { &[4, 8] } else { &[4, 8, 12, 16, 20] };
    for &k in ks {
        let g = generators::fat_tree(k, 1, Some(max_ports.max(k as u8)));
        points.push(disc(g.topology, HostId(0), &format!("fat-tree k={k}")));
    }
    let cubes: &[&[usize]] = if quick {
        &[&[3, 3, 3], &[4, 4, 4]]
    } else {
        &[&[4, 4, 4], &[5, 5, 5], &[6, 6, 6], &[8, 8, 8]]
    };
    for &dims in cubes {
        let g = generators::cube(dims, 1, max_ports);
        let corner = host_on(&g.topology, g.group("corner")[0]);
        let center = host_on(&g.topology, g.group("center")[0]);
        let label = format!("cube {}³", dims[0]);
        points.push(disc(g.topology.clone(), corner, &format!("{label} corner")));
        points.push(disc(g.topology, center, &format!("{label} center")));
    }
    // §4.1 verify-mode ablation: prior knowledge turns the O(N·P²) scan
    // into an O(L) verification sweep.
    {
        let g = generators::fat_tree(8, 1, Some(max_ports.max(8)));
        let hint = g.topology.clone();
        points.push(discover_full_sharded(
            g.topology,
            HostId(0),
            max_ports,
            "fat-tree k=8 (verify mode)",
            Some(hint),
            1,
            shards,
        ));
    }
    for p in &points {
        r.row([
            p.label.clone(),
            p.switches.to_string(),
            p.probes.to_string(),
            f(p.time.as_secs_f64(), 2),
            if p.exact { "exact" } else { "MISMATCH" }.to_owned(),
        ]);
    }
    r.note(String::new());
    r.note("The verify-mode row is the §4.1 fast-bootstrap option: probing");
    r.note("only hinted port pairs cuts probes by orders of magnitude while");
    r.note("still verifying every link.");
    r
}

/// Figure 8(b): discovery time vs. port density on a fixed cube.
#[must_use]
pub fn run_b(quick: bool) -> Report {
    let (dims, ports): (&[usize], &[u8]) = if quick {
        (&[4, 4, 4], &[8, 16, 24, 32])
    } else {
        (&[8, 8, 8], &[16, 32, 48, 64, 80, 96])
    };
    let mut r = Report::new("Figure 8(b) — discovery time vs. ports per switch");
    r.note(format!(
        "{}³ cube ({} switches), links held constant, port count probed varies",
        dims[0],
        dims.iter().product::<usize>()
    ));
    r.note("paper: quadratic trend, consistent with O(N·P²) probe volume.");
    r.header(["ports", "probes", "time (s)", "time/P² (ms)", "map"]);
    for &p in ports {
        let g = generators::cube(dims, 1, p);
        let corner = host_on(&g.topology, g.group("corner")[0]);
        let point = discover(g.topology, corner, p, "cube");
        r.row([
            p.to_string(),
            point.probes.to_string(),
            f(point.time.as_secs_f64(), 2),
            f(
                point.time.as_millis_f64() / f64::from(u32::from(p) * u32::from(p)),
                2,
            ),
            if point.exact { "exact" } else { "MISMATCH" }.to_owned(),
        ]);
    }
    r.note(String::new());
    r.note("time/P² ≈ constant ⇒ the quadratic trend of the paper.");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_discovery_is_seconds_scale() {
        let p = discover(generators::testbed().topology, HostId(0), 16, "testbed");
        assert!(p.exact, "testbed must map exactly");
        // 7 switches × 16² probes at 33 µs ≈ 0.06 s + timeout tails.
        assert!(p.time.as_secs_f64() < 5.0, "took {}", p.time);
        assert!(p.probes > 7 * 16 * 16 / 2);
    }
}
