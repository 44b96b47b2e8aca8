//! Chaos soak for the fenced controller leadership machinery.
//!
//! Runs a matrix of seeds; each seed derives a different interleaving
//! of controller crash/restart and network partition over a
//! three-controller testbed fabric, then checks the leadership
//! invariants (at most one leader per term, term-monotone logs,
//! post-heal log convergence) and that the cluster settles on exactly
//! one live leader. Every seed runs twice: once as before, and once as
//! a **gray row** — detection enabled, six hosts streaming, and a gray
//! fault (silent loss, link stays up) on one trunk the seed draws, or
//! two on different leaves, overlapping the crash/partition schedule.
//! Gray rows additionally check the DESIGN.md §10 invariants mid-fault
//! (no blackhole while a healthy path exists, nothing held that carries
//! no loss, every faulted trunk held by the leader bar the named
//! `RECALL_EXCEPTIONS`, bounded flaps) and
//! post-heal (nothing held). Exits non-zero on the first violation, so
//! CI can gate on it — and dumps each blackholed pair's caches, the
//! telemetry snapshot diff (baseline vs. post-run) and the tail of the
//! structured trace ring, so a red run carries its own forensics
//! instead of a bare exit code.
//!
//! Usage: `figures chaos_soak [--seeds N] [--shards N] [--hybrid]` (defaults
//! 8, 1, off). With `--shards N > 1` the same matrix runs on the
//! sharded multi-core PDES engine; every invariant and every counter is
//! byte-identical to the single-world run by the engine's determinism
//! contract, so a sharded soak row exercises the cross-shard window
//! machinery under crash, partition, and gray faults. With `--hybrid`
//! the matrix runs with the hybrid flow plane layered over that packet
//! engine: two flow-plane elephants cross spine trunks for the whole
//! soak, controller quarantine is mirrored into the flow plane at every
//! settle checkpoint, and each row additionally asserts that boundary
//! cap events reached the flow plane and that no elephant is left
//! starved after the faults heal. The two flags compose: `--hybrid
//! --shards 4` prints the same per-seed lines as `--hybrid`.

use std::collections::BTreeSet;

use dumbnet_controller::{Controller, ControllerConfig};
use dumbnet_core::{check_gray_invariants, check_invariants, Fabric, FabricConfig};
use dumbnet_host::agent::AppAction;
use dumbnet_host::pathtable::CachedPath;
use dumbnet_host::{FlowKey, GrayDetectConfig, HostAgent, HostAgentConfig};
use dumbnet_sim::{
    ChaosPlan, CrashSchedule, Engine, FlowId, HybridWorld, NodeAddr, PartitionSchedule,
    ShardedWorld, World,
};
use dumbnet_switch::DumbSwitchConfig;
use dumbnet_topology::{generators, Route, Topology};
use dumbnet_types::{norm_edge, HostId, MacAddr, SimDuration, SimTime, SwitchId};

use crate::gates::{Args, Outcome};

const CONTROLLERS: [u64; 3] = [0, 13, 25];

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Two streaming hosts of the gray rows and their destinations (far
/// leaves, so the streams cross spine trunks); the hybrid rows' two
/// elephants run between the same pairs.
const GRAY_STREAMS: [(u64, u64); 2] = [(2, 26), (3, 17)];

/// The gray rows' other streams: with [`GRAY_STREAMS`], each leaf is a
/// stream end twice, so two hosts (a controller quorum) probe each
/// trunk a gray row can fault.
const RING_STREAMS: [(u64, u64); 4] = [(6, 22), (12, 18), (19, 7), (23, 14)];

/// The soak's fabric configuration (shared by both engines).
fn soak_config(gray: bool) -> FabricConfig {
    let peers: Vec<MacAddr> = CONTROLLERS.iter().map(|&h| MacAddr::for_host(h)).collect();
    let mut cfg = FabricConfig {
        controllers: CONTROLLERS.iter().map(|&h| HostId(h)).collect(),
        controller: ControllerConfig {
            peers,
            heartbeat: SimDuration::from_millis(20),
            takeover_timeout: SimDuration::from_millis(100),
            // Soak the batched control plane, not just the legacy
            // per-entry path: pipelined discovery plus a deliberately
            // tiny segment cap so every patch epoch is multi-segment
            // and reassembly races the injected faults.
            probe_window: 4,
            patch_batch_max: 2,
            ..ControllerConfig::default()
        },
        // Shadow-check every forward decision against the byte-level
        // reference interpreter, so the soak cross-checks the data
        // plane under fault injection too (invariant 8, DESIGN.md §8).
        switch: DumbSwitchConfig {
            shadow_check: true,
            ..DumbSwitchConfig::default()
        },
        ..FabricConfig::default()
    };
    if gray {
        cfg.host.gray_detect = Some(GrayDetectConfig::default());
        cfg.controller.gray = true;
    }
    cfg
}

/// Host-agent constructor: the gray rows run two light long-lived
/// streams — enough traffic to keep paths cached and probed through
/// the whole fault window, far below the trunk capacity.
fn soak_host(gray: bool) -> impl FnMut(HostId, HostAgentConfig) -> HostAgent {
    move |id, mut hc| {
        if gray {
            let mut streams = GRAY_STREAMS.iter().chain(&RING_STREAMS);
            if let Some(&(_, dst)) = streams.find(|&&(h, _)| h == id.get()) {
                hc.actions = vec![AppAction::DataStream {
                    at: SimDuration::from_millis(10),
                    dst: MacAddr::for_host(dst),
                    flow: 7,
                    packets: 1_400,
                    bytes: 400,
                    interval: SimDuration::from_micros(500),
                }];
            }
        }
        HostAgent::new(id, hc)
    }
}

fn soak_controller(id: HostId, mut ccfg: ControllerConfig) -> Controller {
    ccfg.is_leader = id == HostId(CONTROLLERS[0]);
    Controller::new(id, ccfg)
}

/// Engine-specific soak extensions. The default hooks do nothing; the
/// hybrid rows use them to run a flow plane alongside the packet soak.
trait PlaneHooks<W: Engine> {
    /// Called once after the fabric is built, before the chaos plan.
    fn start(&mut self, _fabric: &mut Fabric<W>) {}
    /// Called at every settle checkpoint (~100 ms of virtual time).
    fn tick(&mut self, _fabric: &mut Fabric<W>) {}
    /// Called after the standard invariant checks pass; returns a
    /// summary fragment for the per-seed line, or a violation.
    fn check(&mut self, _fabric: &mut Fabric<W>) -> Result<String, String> {
        Ok(String::new())
    }
}

/// The packet-only rows: no extensions.
struct PacketOnly;
impl<W: Engine> PlaneHooks<W> for PacketOnly {}

/// Elephant size for the hybrid rows: large enough that both flows
/// outlive the soak, so post-heal starvation is observable as a zero
/// rate rather than a completed flow.
const ELEPHANT_BYTES: u64 = 10_000_000_000;

/// The hybrid rows' flow plane: one elephant per gray stream pair,
/// each pinned to a different spine, so flow paths cross the trunks
/// the chaos schedule (and the gray fault) disturb.
#[derive(Default)]
struct HybridPlane {
    elephants: Vec<FlowId>,
}

impl<W: Engine> PlaneHooks<HybridWorld<W>> for HybridPlane {
    fn start(&mut self, fabric: &mut Fabric<HybridWorld<W>>) {
        let spines: Vec<SwitchId> = fabric
            .topology
            .switches()
            .filter(|s| fabric.topology.hosts_on(s.id).next().is_none())
            .map(|s| s.id)
            .collect();
        for (i, &(src, dst)) in GRAY_STREAMS.iter().enumerate() {
            let (src, dst) = (HostId(src), HostId(dst));
            let a = fabric
                .topology
                .host(src)
                .expect("elephant src")
                .attached
                .switch;
            let b = fabric
                .topology
                .host(dst)
                .expect("elephant dst")
                .attached
                .switch;
            let spine = spines[i % spines.len()];
            let route = Route::new(vec![a, spine, b]).expect("leaf-spine-leaf route");
            let path = fabric
                .flow_path(src, dst, &route)
                .expect("route maps onto flow edges");
            self.elephants
                .push(fabric.world.start_elephant(path, ELEPHANT_BYTES));
        }
    }

    fn tick(&mut self, fabric: &mut Fabric<HybridWorld<W>>) {
        fabric.sync_quarantine();
    }

    fn check(&mut self, fabric: &mut Fabric<HybridWorld<W>>) -> Result<String, String> {
        let stats = fabric.world.hybrid_stats();
        if stats.cap_events == 0 {
            return Err(
                "no boundary cap event reached the flow plane (crash/restart and \
                 fault windows must all cross the hybrid boundary)"
                    .to_owned(),
            );
        }
        let mut mbps = Vec::new();
        for &f in &self.elephants {
            let bps = fabric.world.elephant_rate(f).bits_per_sec();
            if bps == 0 {
                return Err(format!(
                    "elephant {f:?} starved after heal (rate 0; quarantine or a \
                     fault scale was never released into the flow plane)"
                ));
            }
            mbps.push(bps / 1_000_000);
        }
        Ok(format!(
            " caps={} q_flips={} eleph_mbps={mbps:?}",
            stats.cap_events, stats.quarantine_flips
        ))
    }
}

/// Seeds whose gray row skips the recall clause, each a named finding
/// in EXPERIMENTS (Figure 11(e)): fewer than two hosts whose reports
/// reach the leader probe a faulted trunk, or the leader's replication
/// crosses it and its lease lapses.
const RECALL_EXCEPTIONS: [u64; 7] = [3, 4, 5, 11, 15, 16, 23];

/// Trace events printed with a violation dump.
const TRACE_TAIL: usize = 32;

/// The trunks a gray row faults: one of the testbed's ten, drawn from
/// the seed, and on every fourth seed a second one on another leaf.
fn gray_trunks(topo: &Topology, seed: u64) -> Vec<(SwitchId, SwitchId)> {
    let mut trunks: Vec<_> = topo
        .links()
        .map(|l| norm_edge(l.a.switch, l.b.switch))
        .collect();
    trunks.sort_unstable();
    let first = (seed as usize * 7) % trunks.len();
    let mut faulted = vec![trunks[first]];
    if seed % 4 == 3 {
        faulted.push(trunks[(first + 3) % trunks.len()]);
    }
    faulted
}

/// Renders the post-violation forensics: each blackholed pair's cached
/// paths, bound flow, TopoCache k paths, held and down edges; then what
/// changed since the baseline snapshot, and the trace ring's tail.
fn violation_dump<W: Engine>(
    fabric: &mut Fabric<W>,
    baseline: &dumbnet_telemetry::TelemetrySnapshot,
    blackholed: &[(HostId, MacAddr)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for &(host, dst) in blackholed {
        let Some(agent) = fabric.host(host) else {
            continue;
        };
        let routes = |paths: &[&CachedPath]| paths.iter().map(|p| p.route.to_string()).collect();
        let cached: Vec<String> = agent
            .pathtable
            .entry(dst)
            .map_or(Vec::new(), |e| routes(&e.all_paths().collect::<Vec<_>>()));
        let bound = agent
            .pathtable
            .bound_path(dst, FlowKey(7))
            .map(|p| p.route.to_string());
        let offered: Vec<String> = agent
            .topocache
            .clone()
            .k_paths(dst, 4)
            .map_or(Vec::new(), |(p, b)| {
                routes(&p.iter().chain(&b).collect::<Vec<_>>())
            });
        let held = agent.gray.as_ref().map(|g| g.held()).unwrap_or_default();
        let down: BTreeSet<_> = agent.topocache.down_edges().iter().collect();
        let _ = writeln!(
            out,
            "--- host {} -> {dst} ---\ncached: {cached:?}\nbound (flow 7): {bound:?}\n\
             k_paths: {offered:?}\nheld: {held:?}\ndown: {down:?}",
            host.get()
        );
    }
    let after = fabric.telemetry_snapshot();
    let diff = after.diff(baseline);
    let (tail, older) = fabric.trace_tail(TRACE_TAIL);
    let _ = writeln!(out, "--- telemetry diff (baseline -> violation) ---");
    let _ = write!(out, "{diff}");
    let _ = writeln!(
        out,
        "--- trace ring tail ({} older events elided) ---",
        older
    );
    for ev in tail {
        let _ = writeln!(out, "{ev}");
    }
    out
}

/// Runs one seeded scenario; returns a violation description, if any.
/// With `gray`, a silent-loss fault overlaps the crash/partition
/// schedule and the gray invariants are checked mid-fault and
/// post-heal.
fn soak_one(seed: u64, gray: bool, shards: u32, hybrid: bool) -> Result<String, String> {
    let engine_seed = soak_config(gray).seed;
    if shards > 1 {
        let packet = ShardedWorld::new(engine_seed, shards as usize);
        soak_on(packet, seed, gray, hybrid)
    } else {
        soak_on(World::new(engine_seed), seed, gray, hybrid)
    }
}

/// Builds the soak fabric on the packet engine `packet` — under the
/// hybrid flow plane when `hybrid` — and runs the soak body on it.
fn soak_on<W: Engine>(packet: W, seed: u64, gray: bool, hybrid: bool) -> Result<String, String> {
    fn fabric<E: Engine>(world: E, gray: bool) -> Fabric<E> {
        let g = generators::testbed();
        let (cfg, mk_host) = (soak_config(gray), soak_host(gray));
        Fabric::assemble(world, g.topology, cfg, &g.groups, mk_host, soak_controller)
            .expect("fabric builds")
    }
    if hybrid {
        let fabric = fabric(HybridWorld::new(packet), gray).bind_flow_edges();
        run_soak(fabric, seed, gray, "hybrid-", HybridPlane::default())
    } else {
        run_soak(fabric(packet, gray), seed, gray, "", PacketOnly)
    }
}

/// The soak body, generic over the engine: inject the seed-derived
/// schedule, then check every invariant family.
fn run_soak<W: Engine>(
    mut fabric: Fabric<W>,
    seed: u64,
    gray: bool,
    plane: &str,
    mut hooks: impl PlaneHooks<W>,
) -> Result<String, String> {
    let mode = format!("{plane}{}", if gray { "gray" } else { "base" });
    let baseline = fabric.telemetry_snapshot();
    hooks.start(&mut fabric);

    // Seed-derived interleaving: one controller crashes and restarts,
    // another (always a different one) is partitioned off and healed.
    let crash_victim = CONTROLLERS[(seed % 3) as usize];
    let mut cut_victim = CONTROLLERS[((seed + 1 + seed / 3) % 3) as usize];
    if cut_victim == crash_victim {
        cut_victim = CONTROLLERS[((seed + 2) % 3) as usize];
    }
    let crash_at = 100 + (seed % 5) * 20;
    let restart_after = 250 + (seed % 4) * 50;
    let cut_at = 150 + (seed % 7) * 30;
    let heal_after = 300 + (seed % 5) * 60;

    let crash_addr = fabric
        .host_addr(HostId(crash_victim))
        .expect("controller host exists");
    let cut_addr = fabric
        .host_addr(HostId(cut_victim))
        .expect("controller host exists");
    let rest: Vec<NodeAddr> = (0..fabric.world.node_count())
        .map(NodeAddr)
        .filter(|&n| n != cut_addr)
        .collect();
    let plan = ChaosPlan::seeded(seed)
        .with_crash(CrashSchedule {
            node: crash_addr,
            at: at_ms(crash_at),
            restart_after: Some(SimDuration::from_millis(restart_after)),
        })
        .with_partition(PartitionSchedule {
            cells: vec![("cut".into(), vec![cut_addr]), ("rest".into(), rest)],
            start: at_ms(cut_at),
            heal_after: SimDuration::from_millis(heal_after),
        });
    let mut last = plan
        .last_scheduled_event()
        .map_or(0, |t| t.since(SimTime::ZERO).as_millis_f64() as u64);
    plan.apply(&mut fabric.world);

    if gray {
        // The seed draws the faulted trunks and a loss rate of 0.3, 0.6
        // or 1.0; the crash/partition schedule starts at ≥100 ms. The
        // loss outlasts the span with one controller crashed and another
        // cut off by 250 ms: an election, the new leader's lease and two
        // hosts' corroborating reports fit in it.
        let faulted = gray_trunks(&fabric.topology, seed);
        let rate = [0.3, 0.6, 1.0][(seed / 2 % 3) as usize];
        let gray_at = 150 + (seed % 3) * 40;
        let quorum_back = (crash_at + restart_after).min(cut_at + heal_after);
        let gray_heal = (gray_at + 230 + (seed % 4) * 30).max(quorum_back + 250);
        for &(a, b) in &faulted {
            let wire = fabric.trunk_wire(a, b).expect("trunk exists");
            fabric.world.schedule_loss(at_ms(gray_at), wire, rate);
            fabric.world.schedule_loss(at_ms(gray_heal), wire, 0.0);
        }
        last = last.max(gray_heal);

        // Mid-fault: detection has had ≥200 ms — nobody may be
        // black-holed while a healthy path exists, exactly the faulted
        // trunks may be held, a leader must hold them all, and
        // quarantine must not be flapping.
        fabric.run_until(at_ms(gray_heal - 10));
        hooks.tick(&mut fabric);
        let mut mid = check_gray_invariants(&fabric, &faulted);
        if RECALL_EXCEPTIONS.contains(&seed) {
            mid.unheld_faults.clear();
        }
        if !mid.ok() {
            let dump = violation_dump(&mut fabric, &baseline, &mid.blackholed_pairs);
            return Err(format!(
                "seed {seed} ({mode}): mid-fault gray invariants violated: \
                 {mid:?}\n{dump}"
            ));
        }
    }

    // Generous settle window after the last disruption: elections,
    // step-downs and resyncs must all have quiesced. Stepped in 100 ms
    // checkpoints so engine-specific hooks (the hybrid quarantine
    // mirror) run periodically rather than once at the end.
    let settle_end = last + 800;
    let mut checkpoint = fabric.now().since(SimTime::ZERO).as_millis_f64() as u64;
    while checkpoint < settle_end {
        checkpoint = (checkpoint + 100).min(settle_end);
        fabric.run_until(at_ms(checkpoint));
        hooks.tick(&mut fabric);
    }

    if gray {
        let after = check_gray_invariants(&fabric, &[]);
        if !after.ok() {
            let dump = violation_dump(&mut fabric, &baseline, &after.blackholed_pairs);
            return Err(format!(
                "seed {seed} ({mode}): post-heal gray invariants violated: \
                 {after:?}\n{dump}"
            ));
        }
    }

    let report = check_invariants(&fabric);
    if !report.dataplane_ok() {
        let dump = violation_dump(&mut fabric, &baseline, &[]);
        return Err(format!(
            "seed {seed} ({mode}): data-plane divergence from reference model: \
             {:?} (switch id, divergence count)\n{dump}",
            report.dataplane_divergence,
        ));
    }
    if !report.leadership_ok() {
        let dump = violation_dump(&mut fabric, &baseline, &[]);
        return Err(format!(
            "seed {seed} ({mode}): leadership invariants violated: \
             duplicate_term_leaders={:?} nonmonotone_logs={:?} \
             divergent_log_pairs={:?}\n{dump}",
            report.duplicate_term_leaders, report.nonmonotone_logs, report.divergent_log_pairs,
        ));
    }
    let leaders: Vec<u64> = CONTROLLERS
        .iter()
        .copied()
        .filter(|&h| {
            fabric
                .controller(HostId(h))
                .is_some_and(|c| c.stats().is_leader)
        })
        .collect();
    if leaders.len() != 1 {
        let dump = violation_dump(&mut fabric, &baseline, &[]);
        return Err(format!(
            "seed {seed} ({mode}): expected exactly one settled leader, got {leaders:?}\n{dump}"
        ));
    }
    let (elections, step_downs): (u64, u64) = CONTROLLERS
        .iter()
        .filter_map(|&h| fabric.controller(HostId(h)))
        .fold((0, 0), |(e, s), c| {
            (e + c.stats().elections_started, s + c.stats().step_downs)
        });
    let extra = match hooks.check(&mut fabric) {
        Ok(extra) => extra,
        Err(why) => {
            let dump = violation_dump(&mut fabric, &baseline, &[]);
            return Err(format!("seed {seed} ({mode}): {why}\n{dump}"));
        }
    };
    Ok(format!(
        "seed {seed} ({mode}): crash={crash_victim}@{crash_at}ms(+{restart_after}ms) \
         cut={cut_victim}@{cut_at}ms(+{heal_after}ms) leader={} \
         elections={elections} step_downs={step_downs} ok{extra}",
        leaders[0]
    ))
}

/// Runs the seed matrix: one line per passing row, every violation in
/// the failure.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    let (seeds, shards) = (args.seeds.unwrap_or(8), args.shards.unwrap_or(1));
    let mut out = Outcome::default();
    let mut failed = Vec::new();
    for seed in 0..seeds {
        for gray in [false, true] {
            match soak_one(seed, gray, shards, args.hybrid) {
                Ok(line) => out.stdout += &format!("{line}\n"),
                Err(violation) => failed.push(format!("FAIL {violation}")),
            }
        }
    }
    if !failed.is_empty() {
        out.failure = Some(failed.join("\n"));
        return out;
    }
    let engine = if args.hybrid {
        format!("the hybrid flow/packet engine over {shards} shard(s)")
    } else {
        format!("{shards} shard(s)")
    };
    out.stdout += &format!(
        "chaos soak passed: {seeds} seeds x {{base, gray}} on {engine}, zero invariant violations\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A blackholed pair's dump names what its source holds: here a
    /// trunk doctored into host 2's detector as a controller verdict.
    #[test]
    fn violation_dump_prints_the_pairs_caches_and_held_edges() {
        let g = generators::testbed();
        let (cfg, world) = (soak_config(true), World::new(soak_config(true).seed));
        let mut fabric = Fabric::assemble(
            world,
            g.topology,
            cfg,
            &g.groups,
            soak_host(true),
            soak_controller,
        )
        .expect("fabric builds");
        let baseline = fabric.telemetry_snapshot();
        fabric.run_until(at_ms(60));
        let held = (SwitchId(1), SwitchId(6));
        let addr = fabric.host_addr(HostId(2)).expect("host 2");
        let agent = fabric.world.node_mut::<HostAgent>(addr).expect("agent");
        let gray = agent.gray.as_mut().expect("detection is on");
        gray.on_verdict(at_ms(60), held, true);
        let pair = (HostId(2), MacAddr::for_host(26));
        let dump = violation_dump(&mut fabric, &baseline, &[pair]);
        assert!(dump.contains(&format!("held: {{{held:?}}}")), "{dump}");
        assert!(dump.contains("cached: [\"S2→S"), "{dump}");
        assert!(dump.contains("--- telemetry diff"), "{dump}");
    }
}
