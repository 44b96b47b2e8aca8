//! DumbNet-specific chaos invariants.
//!
//! The protocol-agnostic disruptions live in `dumbnet_sim::faults` (a
//! [`ChaosPlan`](dumbnet_sim::ChaosPlan) of loss, crashes and
//! partitions). This module layers the DumbNet semantics on top: after a
//! disrupted run settles, [`check_invariants`] audits the whole fabric
//! for the properties a self-healing deployment must restore —
//!
//! 1. **Discovery terminated**: every controller holds a topology.
//! 2. **No divergent controller view**: each controller's link states
//!    agree with the emulator's ground truth.
//! 3. **No stale PathTable entries**: no host caches a path crossing a
//!    link that is currently down (or that no longer exists).
//! 4. **All-pairs reachability**: every host pair is connected over the
//!    up-links of the ground-truth topology.
//! 5. **At most one leader per term**: no leadership term appears in
//!    two different controllers' `terms_led` histories — the split-brain
//!    safety property, checked over *all* controllers including crashed
//!    ones (a safety violation in the past does not heal).
//! 6. **Term-monotone logs**: within each replica's log, entry terms
//!    never decrease with the index.
//! 7. **Post-heal log convergence**: every pair of live replicas agrees
//!    entry-for-entry up to the end of the shorter log.
//! 8. **Data-plane fidelity**: on fabrics built with
//!    [`DumbSwitchConfig::shadow_check`](dumbnet_switch::DumbSwitchConfig)
//!    enabled, no switch's forward decision ever disagreed with the
//!    byte-level reference interpreter (`dumbnet_fpga::refmodel`) — a
//!    nonzero `ref_divergence` counter is a data-plane bug regardless
//!    of how much chaos was in flight (DESIGN.md §8). Trivially holds
//!    on fabrics that never enabled the shadow check.
//!
//! Invariants 5 and 7 are skipped for **two-member** controller groups:
//! a lone surviving follower there may self-elect on its own vote (the
//! documented availability-over-safety trade, DESIGN.md §6), so both
//! sides of a partitioned pair can legitimately claim the same term and
//! diverge until heal. Groups of three or more always hold them.

use std::collections::{BTreeSet, HashMap, HashSet};

use dumbnet_topology::Link;
use dumbnet_types::{norm_edge, HostId, MacAddr, SwitchId};

use dumbnet_controller::MAX_FLAPS;
use dumbnet_sim::Engine;

use crate::Fabric;

/// Outcome of a fabric-wide invariant audit.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Every controller has a topology (discovery finished or preload).
    pub controllers_ready: bool,
    /// Ground-truth links whose up/down state a controller disagrees
    /// with (or does not know at all).
    pub divergent_links: Vec<(SwitchId, SwitchId)>,
    /// `(host, destination)` pairs whose cached path crosses a down or
    /// nonexistent link.
    pub stale_paths: Vec<(HostId, MacAddr)>,
    /// Host pairs with no up-path between their attach switches.
    pub unreachable_pairs: Vec<(HostId, HostId)>,
    /// Unordered host pairs examined for reachability.
    pub pairs_checked: usize,
    /// Leadership terms claimed by two different controllers —
    /// split-brain evidence: `(term, controller, controller)`.
    pub duplicate_term_leaders: Vec<(u64, HostId, HostId)>,
    /// Controllers whose replicated log holds an entry whose term is
    /// lower than an earlier entry's (terms must rise with the index).
    pub nonmonotone_logs: Vec<HostId>,
    /// Live controller pairs whose logs disagree on some entry both
    /// hold.
    pub divergent_log_pairs: Vec<(HostId, HostId)>,
    /// Switches whose shadow-checked forward decisions diverged from
    /// the reference interpreter, with the divergence count. Only
    /// populated on fabrics running with `shadow_check` enabled.
    pub dataplane_divergence: Vec<(SwitchId, u64)>,
}

impl InvariantReport {
    /// Whether every invariant holds.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.controllers_ready
            && self.divergent_links.is_empty()
            && self.stale_paths.is_empty()
            && self.unreachable_pairs.is_empty()
            && self.leadership_ok()
            && self.dataplane_ok()
    }

    /// Whether the data-plane fidelity invariant (8) holds. Like the
    /// leadership invariants it is valid mid-disruption: fault
    /// injection may drop or corrupt frames, but a *divergence between
    /// the production path and the reference model* is never excused.
    #[must_use]
    pub fn dataplane_ok(&self) -> bool {
        self.dataplane_divergence.is_empty()
    }

    /// Whether the leadership-safety invariants (5–7) hold. Usable
    /// mid-disruption too: unlike readiness or reachability, these may
    /// never be violated even while a partition is open.
    #[must_use]
    pub fn leadership_ok(&self) -> bool {
        self.duplicate_term_leaders.is_empty()
            && self.nonmonotone_logs.is_empty()
            && self.divergent_log_pairs.is_empty()
    }
}

/// The trunks that are up. Physical ground truth is the *engine's* wire
/// state — scheduled failures and chaos flaps act on wires, not on the
/// (static) topology the fabric was built from.
fn up_edges<W: Engine>(fabric: &Fabric<W>) -> HashSet<(SwitchId, SwitchId)> {
    let up = |l: &&Link| {
        let wire = fabric.trunk_wire(l.a.switch, l.b.switch);
        wire.is_some_and(|w| fabric.world.wire_up(w))
    };
    let links = fabric.topology.links().filter(up);
    links.map(|l| norm_edge(l.a.switch, l.b.switch)).collect()
}

/// Whether two switches are connected over `edges` (union-find).
fn connectivity(
    edges: impl Iterator<Item = (SwitchId, SwitchId)>,
) -> impl Fn(SwitchId, SwitchId) -> bool {
    let mut parent: HashMap<SwitchId, SwitchId> = HashMap::new();
    let root = |parent: &HashMap<SwitchId, SwitchId>, mut s: SwitchId| {
        while let Some(&p) = parent.get(&s) {
            s = p;
        }
        s
    };
    for (a, b) in edges {
        let (ra, rb) = (root(&parent, a), root(&parent, b));
        if ra != rb {
            parent.insert(ra, rb);
        }
    }
    move |a, b| root(&parent, a) == root(&parent, b)
}

/// Audits `fabric` against the post-chaos invariants. Call this after
/// the plan's faults have ended and the fabric has had time to settle
/// (notifications flooded, patches applied) — mid-disruption the
/// invariants are *expected* to be violated.
#[must_use]
pub fn check_invariants<W: Engine>(fabric: &Fabric<W>) -> InvariantReport {
    let truth = &fabric.topology;
    let up_edges = up_edges(fabric);

    let mut report = InvariantReport {
        controllers_ready: true,
        ..InvariantReport::default()
    };

    // 1 + 2: controller readiness and view agreement.
    for cid in fabric.controller_ids() {
        let Some(ctrl) = fabric.controller(cid) else {
            report.controllers_ready = false;
            continue;
        };
        let Some(view) = ctrl.topology.as_ref() else {
            report.controllers_ready = false;
            continue;
        };
        for l in truth.links() {
            let physically_up = up_edges.contains(&norm_edge(l.a.switch, l.b.switch));
            let agrees = view
                .link_between(l.a.switch, l.b.switch)
                .is_some_and(|v| v.up == physically_up);
            if !agrees {
                report
                    .divergent_links
                    .push(norm_edge(l.a.switch, l.b.switch));
            }
        }
    }
    report.divergent_links.sort_unstable();
    report.divergent_links.dedup();

    // 5 + 6 + 7: leadership safety.
    let mut term_holders: HashMap<u64, Vec<HostId>> = HashMap::new();
    let mut live: Vec<HostId> = Vec::new();
    for cid in fabric.controller_ids() {
        let Some(ctrl) = fabric.controller(cid) else {
            continue;
        };
        let log = ctrl.replication();
        // Two-member groups may legitimately split-brain (self-election
        // on a single vote, DESIGN.md §6): exempt them from the
        // duplicate-term and convergence checks.
        let quorum_safe = log.members().len() != 2;
        if quorum_safe {
            for &term in &ctrl.stats().terms_led {
                let holders = term_holders.entry(term).or_default();
                if !holders.contains(&cid) {
                    holders.push(cid);
                }
            }
        }
        let mut prev_term = 0;
        for entry in log.entries() {
            if entry.term < prev_term {
                report.nonmonotone_logs.push(cid);
                break;
            }
            prev_term = entry.term;
        }
        let crashed = fabric
            .host_addr(cid)
            .is_ok_and(|addr| fabric.world.is_crashed(addr));
        if quorum_safe && !crashed {
            live.push(cid);
        }
    }
    let mut terms: Vec<u64> = term_holders.keys().copied().collect();
    terms.sort_unstable();
    for term in terms {
        let holders = &term_holders[&term];
        for (i, &a) in holders.iter().enumerate() {
            for &b in &holders[i + 1..] {
                report.duplicate_term_leaders.push((term, a, b));
            }
        }
    }
    for (i, &a) in live.iter().enumerate() {
        for &b in &live[i + 1..] {
            let (la, lb) = match (fabric.controller(a), fabric.controller(b)) {
                (Some(ca), Some(cb)) => (ca.replication(), cb.replication()),
                _ => continue,
            };
            let diverged = la.entries().zip(lb.entries()).any(|(ea, eb)| ea != eb);
            if diverged {
                report.divergent_log_pairs.push((a, b));
            }
        }
    }

    // 8: data-plane fidelity (shadow-checked fabrics only; counters
    // stay zero — and the invariant trivially true — otherwise).
    for sw in truth.switches() {
        if let Some(node) = fabric.switch(sw.id) {
            let divergences = node.stats().ref_divergence;
            if divergences > 0 {
                report.dataplane_divergence.push((sw.id, divergences));
            }
        }
    }
    report.dataplane_divergence.sort_unstable();

    // 3: stale cached paths.
    for h in truth.hosts() {
        let Some(agent) = fabric.host(h.id) else {
            continue; // Controller slot.
        };
        for dst in agent.pathtable.destinations() {
            let Some(entry) = agent.pathtable.entry(dst) else {
                continue;
            };
            let stale = entry.all_paths().any(|p| {
                p.route
                    .switches()
                    .windows(2)
                    .any(|w| !up_edges.contains(&norm_edge(w[0], w[1])))
            });
            if stale {
                report.stale_paths.push((h.id, dst));
            }
        }
    }

    // 4: all-pairs reachability over up links.
    let connected = connectivity(up_edges.iter().copied());
    let hosts: Vec<(HostId, SwitchId)> = truth.hosts().map(|h| (h.id, h.attached.switch)).collect();
    for (i, &(ha, sa)) in hosts.iter().enumerate() {
        for &(hb, sb) in &hosts[i + 1..] {
            report.pairs_checked += 1;
            if !connected(sa, sb) {
                report.unreachable_pairs.push((ha, hb));
            }
        }
    }
    report
}

/// Outcome of the gray-failure invariant audit (DESIGN.md §10).
///
/// Four properties, layered on the binary-state audit above, against
/// the set of edges the audit is told carry loss:
///
/// 1. **No persistent blackhole while a healthy path exists**: for any
///    host with a cached destination, if the up-graph without the edges
///    the host holds still connects the pair, the host caches at least
///    one path avoiding every held edge.
/// 2. **Precision**: no controller and no host holds an edge that
///    carries no loss. After the faults heal nothing carries loss, so
///    this is quarantine convergence.
/// 3. **Recall**: a live controller holds the lease to quarantine, and
///    it holds every edge that carries loss.
/// 4. **Bounded quarantine flaps**: no edge's controller-side
///    quarantine-entry count exceeds the bound — hysteresis prevents
///    enter/release oscillation from amplifying into a patch storm.
#[derive(Debug, Clone, Default)]
pub struct GrayInvariantReport {
    /// `(host, destination)` pairs where every cached path crosses a
    /// held edge even though the up-graph without the held edges still
    /// connects the pair.
    pub blackholed_pairs: Vec<(HostId, MacAddr)>,
    /// Edges a controller or a host holds that carry no loss.
    pub innocent_holds: Vec<(SwitchId, SwitchId)>,
    /// Edges that carry loss and the leader — the live controller
    /// holding the lease to quarantine — does not hold: all of them when
    /// no controller holds the lease.
    pub unheld_faults: Vec<(SwitchId, SwitchId)>,
    /// Edges whose controller-side flap count exceeded the bound.
    pub excess_flaps: Vec<((SwitchId, SwitchId), u32)>,
}

impl GrayInvariantReport {
    /// Whether every gray invariant holds.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.blackholed_pairs.is_empty()
            && self.innocent_holds.is_empty()
            && self.unheld_faults.is_empty()
            && self.excess_flaps.is_empty()
    }
}

/// Audits `fabric` against the gray-failure invariants, where `lossy`
/// lists the (normalized) edges that carry injected loss right now —
/// none once the faults have healed and probation and host release
/// have had time to run. An edge may enter quarantine at most
/// [`MAX_FLAPS`]` + 1` times — sticky pinning caps it there.
#[must_use]
pub fn check_gray_invariants<W: Engine>(
    fabric: &Fabric<W>,
    lossy: &[(SwitchId, SwitchId)],
) -> GrayInvariantReport {
    let truth = &fabric.topology;
    let up_edges = up_edges(fabric);
    let mut report = GrayInvariantReport::default();

    // 4, the controller half of 2, and 3.
    let mut held: BTreeSet<(SwitchId, SwitchId)> = BTreeSet::new();
    let mut leader: Option<Vec<(SwitchId, SwitchId)>> = None;
    for cid in fabric.controller_ids() {
        let Some(ctrl) = fabric.controller(cid) else {
            continue;
        };
        for (e, flaps) in ctrl.gray_flaps() {
            if flaps > MAX_FLAPS + 1 {
                report.excess_flaps.push((e, flaps));
            }
        }
        let decided = ctrl.quarantined_edges();
        held.extend(decided.iter().copied());
        let live = fabric
            .host_addr(cid)
            .is_ok_and(|addr| !fabric.world.is_crashed(addr));
        if live && ctrl.leases(fabric.now()) {
            leader = Some(decided);
        }
    }
    report.excess_flaps.sort_unstable();
    report.excess_flaps.dedup();
    let holds = leader.unwrap_or_default();
    report.unheld_faults = lossy
        .iter()
        .filter(|e| !holds.contains(e))
        .copied()
        .collect();

    // 1 + the host half of 2.
    for h in truth.hosts() {
        let Some(agent) = fabric.host(h.id) else {
            continue; // Controller slot.
        };
        let gray = agent.gray.as_ref().map(|g| g.held()).unwrap_or_default();
        held.extend(gray.iter().copied());
        if gray.is_empty() {
            continue;
        }
        let connected = connectivity(up_edges.iter().filter(|e| !gray.contains(e)).copied());
        for dst in agent.pathtable.destinations() {
            let Some(entry) = agent.pathtable.entry(dst) else {
                continue;
            };
            let Some(dst_sw) = truth.host_by_mac(dst).map(|d| d.attached.switch) else {
                continue;
            };
            if !connected(h.attached.switch, dst_sw) {
                continue; // No healthy route exists; degraded is allowed.
            }
            let has_clean = entry.all_paths().any(|p| {
                p.route
                    .switches()
                    .windows(2)
                    .all(|w| !gray.contains(&norm_edge(w[0], w[1])))
            });
            if !has_clean {
                report.blackholed_pairs.push((h.id, dst));
            }
        }
    }
    report.blackholed_pairs.sort_unstable();
    report.innocent_holds = held.into_iter().filter(|e| !lossy.contains(e)).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_sim::ChaosPlan;
    use dumbnet_topology::generators;
    use dumbnet_types::{SimDuration, SimTime};

    use crate::FabricConfig;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn clean_fabric_passes_invariants() {
        let g = generators::testbed();
        let mut fabric = Fabric::build(g.topology, FabricConfig::default()).unwrap();
        fabric.run_until(t(50));
        let report = check_invariants(&fabric);
        assert!(report.ok(), "clean fabric violated invariants: {report:?}");
        assert!(report.pairs_checked > 0);
    }

    #[test]
    fn severed_fabric_fails_reachability() {
        // The testbed's edge switches hang off the leaf layer; cutting
        // every trunk of one leaf strands its subtree.
        let g = generators::testbed();
        let leaf = g.group("leaf")[0];
        let cut: Vec<(SwitchId, SwitchId)> = g
            .topology
            .links()
            .filter(|l| l.a.switch == leaf || l.b.switch == leaf)
            .map(|l| (l.a.switch, l.b.switch))
            .collect();
        let mut fabric = Fabric::build(g.topology, FabricConfig::default()).unwrap();
        fabric.run_until(t(10));
        for (a, b) in cut {
            fabric.schedule_link_failure(fabric.now(), a, b).unwrap();
        }
        fabric.run_until(t(200));
        let report = check_invariants(&fabric);
        assert!(!report.unreachable_pairs.is_empty(), "partition undetected");
        assert!(!report.ok());
    }

    /// Redundant flood rounds are the loss countermeasure; the epoch
    /// dedup is what keeps them from amplifying into alarm storms. Cut
    /// one trunk (agents re-flood `FLOOD_REPEATS` = 2 extra rounds) and
    /// verify every host records each distinct link event exactly once,
    /// even though extra flood rounds demonstrably went out.
    #[test]
    fn flood_rebroadcast_deduped_by_receivers() {
        let g = generators::testbed();
        let spine = g.group("spine")[0];
        let leaf = g.group("leaf")[0];
        let mut fabric = Fabric::build(g.topology, FabricConfig::default()).unwrap();
        fabric.run_until(t(100));
        fabric.schedule_link_failure(t(100), leaf, spine).unwrap();
        fabric.run_until(t(400));

        let hosts = fabric.topology.host_count() as u64;
        let rebroadcasts = fabric
            .telemetry_snapshot()
            .sum_counters(dumbnet_telemetry::NodeKind::Host, "floods_rebroadcast");
        assert!(rebroadcasts > 0, "no redundant flood rounds were sent");

        for h in 0..hosts {
            let Some(agent) = fabric.host(dumbnet_types::HostId(h)) else {
                continue;
            };
            let mut seen = std::collections::HashSet::new();
            for (ev, _) in &agent.stats().notification_arrivals {
                assert!(
                    seen.insert((ev.switch, ev.port, ev.up, ev.seq)),
                    "host {h} recorded duplicate event {ev:?} despite dedup"
                );
            }
        }
    }

    /// The full gray-failure pipeline, end to end over the wire: a
    /// trunk silently eats every packet while staying link-up, hosts
    /// detect the loss from probe timeouts and fail over locally,
    /// their `LinkSuspect` reports drive the controller scoreboard to
    /// quarantine the edge fabric-wide, and after the fault heals the
    /// probation machinery releases the quarantine everywhere.
    #[test]
    fn gray_fault_detected_quarantined_and_released() {
        use dumbnet_host::agent::AppAction;
        use dumbnet_host::{GrayDetectConfig, HostAgent};
        use dumbnet_types::MacAddr;

        let g = generators::testbed();
        let spine = g.group("spine")[0];
        let leaf = g.group("leaf")[0];
        let mut cfg = FabricConfig::default();
        cfg.host.gray_detect = Some(GrayDetectConfig::default());
        cfg.controller.gray = true;
        // Two senders on leaf 0 stream to destinations on *different*
        // far leaves: their bad-path evidence then only overlaps on the
        // shared gray trunk, so cross-host corroboration isolates it.
        let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
            if id == dumbnet_types::HostId(1) || id == dumbnet_types::HostId(2) {
                let dst = if id.get() == 1 { 26 } else { 16 };
                hc.actions = vec![AppAction::DataStream {
                    at: SimDuration::from_millis(10),
                    dst: MacAddr::for_host(dst),
                    flow: 7,
                    packets: 400,
                    bytes: 1000,
                    interval: SimDuration::from_micros(500),
                }];
            }
            HostAgent::new(id, hc)
        })
        .unwrap();

        // Gray fault at 50 ms: the trunk drops everything but never
        // reports link-down. Heal at 300 ms.
        let wire = fabric.trunk_wire(leaf, spine).expect("trunk exists");
        fabric.world.schedule_loss(t(50), wire, 1.0);
        fabric.world.schedule_loss(t(300), wire, 0.0);

        // Mid-fault: the edge is quarantined and no host is blackholed.
        fabric.run_until(t(280));
        let e = if leaf <= spine {
            (leaf, spine)
        } else {
            (spine, leaf)
        };
        let ctrl = fabric.controller(dumbnet_types::HostId(0)).unwrap();
        assert_eq!(
            ctrl.quarantined_edges(),
            vec![e],
            "controller never quarantined the gray trunk"
        );
        assert!(
            ctrl.stats().link_suspects_rx > 0,
            "no suspicion reports reached the controller"
        );
        let mid = check_gray_invariants(&fabric, &[e]);
        assert!(mid.ok(), "mid-fault gray invariants violated: {mid:?}");
        let failovers: u64 = (1..3)
            .filter_map(|h| fabric.host(dumbnet_types::HostId(h)))
            .map(|a| a.stats().gray_failovers)
            .sum();
        assert!(failovers > 0, "no host performed a local gray failover");

        // Post-heal: probation releases the quarantine everywhere.
        fabric.run_until(t(600));
        let after = check_gray_invariants(&fabric, &[]);
        assert!(after.ok(), "post-heal gray invariants violated: {after:?}");
        let ctrl = fabric.controller(dumbnet_types::HostId(0)).unwrap();
        assert!(ctrl.stats().unquarantines > 0, "quarantine never released");
        let audit = check_invariants(&fabric);
        assert!(
            audit.ok(),
            "post-heal binary invariants violated: {audit:?}"
        );
    }

    /// A host's own hold gets the reaction a hard-down edge gets, before
    /// any controller acts (the scoreboard is off here): every cached
    /// path is re-installed around the held trunk.
    #[test]
    fn a_local_hold_reinstalls_around_the_edge() {
        use dumbnet_host::agent::AppAction;
        use dumbnet_host::{GrayDetectConfig, HostAgent};

        let g = generators::testbed();
        let (spine, leaf) = (g.group("spine")[0], g.group("leaf")[0]);
        let mut cfg = FabricConfig::default();
        cfg.host.gray_detect = Some(GrayDetectConfig::default());
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
        .unwrap();
        let wire = fabric.trunk_wire(leaf, spine).expect("trunk exists");
        fabric.world.schedule_loss(t(50), wire, 1.0);
        fabric.run_until(t(150));
        let agent = fabric.host(HostId(1)).unwrap();
        let trunk = norm_edge(leaf, spine);
        assert_eq!(agent.gray.as_ref().unwrap().held(), BTreeSet::from([trunk]));
        let entry = agent.pathtable.entry(MacAddr::for_host(26)).unwrap();
        assert!(!entry.paths.is_empty());
        assert!(entry.all_paths().all(|p| !p.uses_edge(leaf, spine)));
        assert!(fabric
            .controller(HostId(0))
            .unwrap()
            .quarantined_edges()
            .is_empty());
    }

    /// The precision and recall clauses, on doctored holds: a host
    /// holding an edge with no loss on it, and a lossy edge the leader
    /// (the one controller) does not hold.
    #[test]
    fn gray_audit_flags_innocent_holds_and_unheld_faults() {
        let g = generators::testbed();
        let (spine, leaf) = (g.group("spine")[0], g.group("leaf")[1]);
        let lossy = norm_edge(g.group("leaf")[2], spine);
        let mut cfg = FabricConfig::default();
        cfg.host.gray_detect = Some(dumbnet_host::GrayDetectConfig::default());
        let mut fabric = Fabric::build(g.topology, cfg).unwrap();
        fabric.run_until(t(50));
        assert!(check_gray_invariants(&fabric, &[]).ok());
        let innocent = norm_edge(leaf, spine);
        let addr = fabric.host_addr(HostId(3)).unwrap();
        let agent = fabric
            .world
            .node_mut::<dumbnet_host::HostAgent>(addr)
            .unwrap();
        agent
            .gray
            .as_mut()
            .unwrap()
            .on_verdict(t(50), innocent, true);
        let report = check_gray_invariants(&fabric, &[]);
        assert_eq!(report.innocent_holds, [innocent]);
        let report = check_gray_invariants(&fabric, &[innocent, lossy]);
        assert!(report.innocent_holds.is_empty());
        assert_eq!(report.unheld_faults, [innocent, lossy]);
    }

    /// The ISSUE acceptance scenario: discovery under 5% uniform packet
    /// loss with one spine trunk flapping still converges, and after the
    /// faults end the fabric restores every invariant. Fully
    /// deterministic: engine seed, fault seed, and schedules are fixed.
    #[test]
    fn discovery_survives_loss_and_flapping_spine() {
        let g = generators::testbed();
        let spine = g.group("spine")[0];
        let leaf = g.group("leaf")[0];
        let mut cfg = FabricConfig {
            seed: 7,
            ..FabricConfig::default()
        };
        cfg.controller.run_discovery = true;
        cfg.controller.discovery.max_ports = 12;
        cfg.controller.discovery.timeout = SimDuration::from_millis(5);
        cfg.controller.discovery.max_retries = 5;
        cfg.controller.probe_interval = SimDuration::from_micros(10);
        let mut fabric = Fabric::build(g.topology, cfg).unwrap();

        // 5% loss on every wire, plus a spine-leaf trunk flapping three
        // times (2 ms down / 8 ms up) early in the discovery window.
        let mut plan = ChaosPlan::seeded(42);
        for ix in 0..fabric.world.wire_count() {
            plan = plan.with_link_fault(dumbnet_sim::WireId::from_raw(ix), 0.05);
        }
        plan.apply(&mut fabric.world);
        let flapped = fabric.trunk_wire(spine, leaf).expect("spine-leaf trunk");
        for down_at in [5, 15, 25] {
            fabric.world.schedule_link_state(t(down_at), flapped, false);
            fabric
                .world
                .schedule_link_state(t(down_at + 2), flapped, true);
        }

        // Convergence: the controller finished discovery, polled every
        // millisecond for up to 10 s.
        let ctrl_addr = fabric.host_addr(dumbnet_types::HostId(0)).unwrap();
        let ready = |fabric: &Fabric| {
            fabric
                .world
                .node::<dumbnet_controller::Controller>(ctrl_addr)
                .is_some_and(dumbnet_controller::Controller::ready)
        };
        let mut now = t(0);
        while !ready(&fabric) && now < t(10_000) {
            now = now + SimDuration::from_millis(1);
            fabric.run_until(now);
        }
        assert!(ready(&fabric), "discovery never finished under chaos");
        assert!(fabric.world.stats().drops_loss > 0, "loss injected nothing");

        let ctrl = fabric.controller(dumbnet_types::HostId(0)).unwrap();
        assert!(
            ctrl.stats().probes_sent > 0,
            "discovery ran without sending probes"
        );

        // Let hellos, notifications, and patches settle, then audit.
        let settle = fabric.now() + SimDuration::from_millis(500);
        fabric.run_until(settle);
        let audit = check_invariants(&fabric);
        assert!(audit.ok(), "post-chaos invariants violated: {audit:?}");

        // The discovered topology is link-exact despite the chaos.
        let found = fabric
            .controller(dumbnet_types::HostId(0))
            .unwrap()
            .topology
            .as_ref()
            .unwrap();
        assert_eq!(found.link_count(), fabric.topology.link_count());
        assert_eq!(found.host_count(), fabric.topology.host_count());
    }
}
