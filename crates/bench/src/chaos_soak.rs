//! Chaos soak for the fenced controller leadership machinery.
//!
//! Runs a matrix of seeds; each seed derives a different interleaving
//! of controller crash/restart and network partition over a
//! three-controller testbed fabric, then checks the leadership
//! invariants (at most one leader per term, term-monotone logs,
//! post-heal log convergence) and that the cluster settles on exactly
//! one live leader. Every seed runs twice: once as before, and once as
//! a **gray row** — detection enabled, two hosts streaming, and a gray
//! fault (silent loss, link stays up) injected on the trunk one
//! stream's bound path crosses, overlapping the crash/partition
//! schedule. Gray rows additionally check the DESIGN.md §10 invariants
//! mid-fault (no blackhole while a healthy path exists, bounded flaps)
//! and post-heal (quarantine convergence). Exits non-zero on the first
//! violation, so CI can gate on it — and dumps the telemetry snapshot
//! diff (baseline vs. post-run) plus the tail of the structured trace
//! ring, so a red run carries its own forensics instead of a bare exit
//! code.
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

use dumbnet_controller::{Controller, ControllerConfig};
use dumbnet_core::{check_gray_invariants, check_invariants, Fabric, FabricConfig};
use dumbnet_host::agent::AppAction;
use dumbnet_host::{FlowKey, GrayDetectConfig, HostAgent, HostAgentConfig};
use dumbnet_sim::{
    ChaosPlan, CrashSchedule, Engine, FlowId, HybridWorld, NodeAddr, PartitionSchedule,
    ShardedWorld, World,
};
use dumbnet_switch::DumbSwitchConfig;
use dumbnet_topology::{generators, Route};
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime, SwitchId};

use crate::gates::{Args, Outcome};

const CONTROLLERS: [u64; 3] = [0, 13, 25];

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The two streaming hosts of the gray rows and their destinations
/// (far leaves, so the streams cross spine trunks).
const GRAY_STREAMS: [(u64, u64); 2] = [(2, 26), (3, 17)];

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
            if let Some(&(_, dst)) = GRAY_STREAMS.iter().find(|&&(h, _)| h == id.get()) {
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

/// Trace events printed with a violation dump.
const TRACE_TAIL: usize = 32;

/// Renders the post-violation forensics: what changed since the
/// baseline snapshot, and the last events on the trace ring.
fn violation_dump<W: Engine>(
    fabric: &mut Fabric<W>,
    baseline: &dumbnet_telemetry::TelemetrySnapshot,
) -> String {
    use std::fmt::Write;
    let after = fabric.telemetry_snapshot();
    let diff = after.diff(baseline);
    let (tail, older) = fabric.trace_tail(TRACE_TAIL);
    let mut out = String::new();
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
        // Warm up until the first stream's path is cached and its flow
        // bound (the crash/partition schedule starts at ≥100 ms), then
        // poison the trunk that bound path actually crosses, so the
        // fault is guaranteed to hit live traffic. Even seeds black-hole the
        // trunk entirely; odd seeds leave it limping at 60 % loss.
        fabric.run_until(at_ms(60));
        let src = HostId(GRAY_STREAMS[0].0);
        let dst = MacAddr::for_host(GRAY_STREAMS[0].1);
        let leaf = fabric
            .topology
            .host(src)
            .expect("stream source exists")
            .attached
            .switch;
        let spine = {
            let agent = fabric.host(src).expect("stream source is a host");
            let bound = agent.pathtable.bound_path(dst, FlowKey(7));
            let bound = bound.expect("stream bound to a cached path after warmup");
            fabric
                .topology
                .links()
                .map(|l| {
                    if l.a.switch == leaf {
                        l.b.switch
                    } else {
                        l.a.switch
                    }
                })
                .find(|&s| bound.uses_edge(leaf, s))
                .expect("bound path crosses a trunk")
        };
        let wire = fabric.trunk_wire(leaf, spine).expect("trunk exists");
        let rate = if seed.is_multiple_of(2) { 1.0 } else { 0.6 };
        let gray_at = 150 + (seed % 3) * 40;
        let gray_heal = gray_at + 230 + (seed % 4) * 30;
        fabric.world.schedule_loss(at_ms(gray_at), wire, rate);
        fabric.world.schedule_loss(at_ms(gray_heal), wire, 0.0);
        last = last.max(gray_heal);

        // Mid-fault: detection has had ≥200 ms — nobody may be
        // black-holed while a healthy path exists, and quarantine must
        // not be flapping.
        fabric.run_until(at_ms(gray_heal - 10));
        hooks.tick(&mut fabric);
        let mid = check_gray_invariants(&fabric, false);
        if !mid.ok() {
            let dump = violation_dump(&mut fabric, &baseline);
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
        let after = check_gray_invariants(&fabric, true);
        if !after.ok() {
            let dump = violation_dump(&mut fabric, &baseline);
            return Err(format!(
                "seed {seed} ({mode}): post-heal gray invariants violated: \
                 {after:?}\n{dump}"
            ));
        }
    }

    let report = check_invariants(&fabric);
    if !report.dataplane_ok() {
        let dump = violation_dump(&mut fabric, &baseline);
        return Err(format!(
            "seed {seed} ({mode}): data-plane divergence from reference model: \
             {:?} (switch id, divergence count)\n{dump}",
            report.dataplane_divergence,
        ));
    }
    if !report.leadership_ok() {
        let dump = violation_dump(&mut fabric, &baseline);
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
        let dump = violation_dump(&mut fabric, &baseline);
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
            let dump = violation_dump(&mut fabric, &baseline);
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
