//! The host's cores, stepped without a `World`: one valid fixture and
//! one doctored input per clause, each with the exact effects expected
//! (DESIGN.md §3.3, §9.3, §10.2). The proptest drives the
//! adapter too: whatever happens, the PathTable's avoid set is the
//! detector's `local ∪ controller`. The last two drive it on a testbed
//! host (DESIGN.md §3.3): a committed patch alone leaves the host where
//! the alarm and the patch do, and a stale alarm changes nothing.

use std::any::Any;
use std::collections::BTreeSet;

use dumbnet_host::failure::{Edge, Effect, GrayDetector, PatchAcceptor, RequestRetry};
use dumbnet_host::pathtable::{CachedPath, PathTable};
use dumbnet_host::{GrayDetectConfig, HostAgent, HostAgentConfig};
use dumbnet_packet::control::{LinkEvent, PatchBatch, PatchEntry, TopoDelta};
use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Engine, LinkParams, Node, NodeAddr, World};
use dumbnet_topology::{generators, pathgraph, Link, PathGraphParams, Route};
use dumbnet_types::{HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn edge(a: u64, b: u64) -> Edge {
    (SwitchId(a), SwitchId(b))
}

fn down(a: u64, b: u64) -> TopoDelta {
    TopoDelta {
        down: vec![edge(a, b)],
        ..TopoDelta::default()
    }
}

fn entry(version: u64) -> PatchEntry {
    PatchEntry {
        version,
        delta: down(version, version + 1),
    }
}

/// Segment `seg` of `segs` of epoch `epoch` at term 1, carrying the
/// entries of `versions`.
fn frame(epoch: u64, (seg, segs): (u16, u16), versions: &[u64]) -> PatchBatch {
    PatchBatch {
        epoch,
        term: 1,
        seg,
        segs,
        entries: versions.iter().copied().map(entry).collect(),
    }
}

fn apply(epoch: u64, versions: &[u64]) -> Effect {
    Effect::Apply {
        epoch,
        entries: versions.iter().copied().map(entry).collect(),
    }
}

/// Feeds `frames` to a fresh acceptor whose adapter holds `held`
/// throughout; returns the effects of each frame.
fn accept(held: u64, frames: Vec<PatchBatch>) -> Vec<Vec<Effect>> {
    let mut acceptor = PatchAcceptor::default();
    let step = |batch| {
        let mut out = Vec::new();
        acceptor.on_batch(held, batch, &mut out);
        out
    };
    frames.into_iter().map(step).collect()
}

#[test]
fn acceptor_valid_fixture_applies_whole_epochs() {
    // One frame, and the same epoch in two: nothing until it is whole.
    assert_eq!(
        accept(0, vec![frame(2, (0, 1), &[1, 2])]),
        [[apply(2, &[1, 2])]]
    );
    let split = vec![frame(2, (1, 2), &[2]), frame(2, (0, 2), &[1])];
    assert_eq!(accept(0, split), [vec![], vec![apply(2, &[1, 2])]]);
    // A duplicate segment is not a second one.
    let dup = vec![frame(2, (0, 2), &[1]), frame(2, (0, 2), &[1])];
    assert_eq!(accept(0, dup), [vec![], vec![]]);
}

#[test]
fn acceptor_drops_stale_reorders_and_replayed_entries() {
    // PR 6 bug 1: a jitter-reordered older patch (or a redundant flood
    // round) after a newer one must not clobber the newer table.
    assert_eq!(accept(3, vec![frame(2, (0, 1), &[2])]), [[Effect::Stale]]);
    assert_eq!(accept(3, vec![frame(3, (0, 1), &[3])]), [[Effect::Stale]]);
    // Entries at or below the table are skipped inside a newer epoch,
    // and the rest leave in version order.
    assert_eq!(
        accept(2, vec![frame(4, (0, 1), &[4, 1, 3])]),
        [[apply(4, &[3, 4])]]
    );
}

#[test]
fn acceptor_fences_lower_terms_for_batches_and_hellos_alike() {
    // PR 6 bug 2: a fenced stale leader still floods from its side.
    let (mut acceptor, mut out) = (PatchAcceptor::default(), Vec::new());
    assert!(acceptor.admit_term(5, &mut out));
    acceptor.on_batch(0, frame(9, (0, 1), &[9]), &mut out);
    assert!(!acceptor.admit_term(4, &mut out));
    assert_eq!(out, [Effect::Fenced, Effect::Fenced]);
    // The fence sits before the epoch check and moves with a batch.
    let newer = PatchBatch {
        term: 6,
        ..frame(9, (0, 1), &[9])
    };
    acceptor.on_batch(0, newer, &mut out);
    assert!(!acceptor.admit_term(5, &mut out));
    assert_eq!(out[2..], [apply(9, &[9]), Effect::Fenced]);
}

#[test]
fn acceptor_abandons_superseded_partials_and_their_stragglers() {
    // PR 6 bugs 3 and 4: epoch 2 half-arrives, epoch 4 starts landing,
    // then epoch 2's other half straggles in — while 4 assembles, and
    // again after it applied (the adapter then holds 4).
    let frames = vec![
        frame(2, (0, 2), &[1]),
        frame(4, (0, 2), &[3]),
        frame(2, (1, 2), &[2]),
        frame(4, (1, 2), &[4]),
    ];
    let expected = [
        vec![],
        vec![Effect::Aborted],
        vec![Effect::Stale],
        vec![apply(4, &[3, 4])],
    ];
    assert_eq!(accept(0, frames), expected);
    assert_eq!(accept(4, vec![frame(2, (1, 2), &[2])]), [[Effect::Stale]]);
    // A whole epoch overtaking a partial abandons it too, and so does
    // the same epoch re-framed into a different segment count.
    let overtaken = vec![frame(2, (0, 2), &[1]), frame(3, (0, 1), &[3])];
    assert_eq!(
        accept(0, overtaken),
        [vec![], vec![Effect::Aborted, apply(3, &[3])]]
    );
    let reframed = vec![frame(2, (0, 2), &[1]), frame(2, (0, 3), &[1])];
    assert_eq!(accept(0, reframed), [vec![], vec![Effect::Aborted]]);
}

#[test]
fn acceptor_ignores_an_out_of_range_segment() {
    // The codec rejects it on the wire; in memory it must not index.
    let frames = vec![
        frame(2, (2, 2), &[1]),
        frame(2, (0, 2), &[1]),
        frame(2, (1, 2), &[2]),
    ];
    assert_eq!(accept(0, frames), [vec![], vec![], vec![apply(2, &[1, 2])]]);
}

const ME: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const DST: MacAddr = MacAddr([2, 0, 0, 0, 0, 9]);

fn cached(switches: &[u64]) -> CachedPath {
    CachedPath {
        tags: Path::from_ports(switches.iter().map(|&s| s as u8 + 1)).unwrap(),
        route: Route::new(switches.iter().map(|&s| SwitchId(s)).collect()).unwrap(),
    }
}

fn table(paths: &[&[u64]]) -> PathTable {
    let mut table = PathTable::new();
    table.install(DST, paths.iter().map(|p| cached(p)).collect(), None);
    table
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A detector with the default knobs (suspect ≥ 0.3 after 4 samples)
/// and a clock that ticks every 5 ms.
struct Rounds {
    detector: GrayDetector,
    now: u64,
}

impl Rounds {
    fn new() -> Rounds {
        Rounds {
            detector: GrayDetector::new(ME, GrayDetectConfig::default()),
            now: 0,
        }
    }

    /// One round: answers the probes of the round before along every
    /// path index not in `lose`, ticks, and returns what the round
    /// decided (probe launches, loss samples and the re-arm aside).
    fn round(&mut self, table: &PathTable, lose: &[usize], can_report: bool) -> Vec<Effect> {
        let width = table.entry(DST).map_or(0, |e| e.paths.len()) as u64;
        let launched = (self.now / 5).saturating_sub(1) * width;
        for ix in (0..width).filter(|ix| self.now > 0 && !lose.contains(&(*ix as usize))) {
            self.detector.on_reply(launched + ix + 1);
        }
        self.now += 5;
        let mut out = Vec::new();
        self.detector
            .on_tick(at_ms(self.now), table, can_report, &mut out);
        assert_eq!(out.pop(), Some(Effect::Arm(SimDuration::from_millis(5))));
        let decided = |e: &Effect| !matches!(e, Effect::Probe(_) | Effect::ProbeLost);
        out.into_iter().filter(decided).collect()
    }
}

fn report(edge: Edge, loss_permille: u16, window: u32, direction: u8, seq: u64) -> Effect {
    Effect::Report(ControlMessage::LinkSuspect {
        reporter: ME,
        edge,
        loss_permille,
        window,
        direction,
        seq,
    })
}

#[test]
fn detector_suspects_at_threshold_clears_at_five_percent_and_nothing_in_between() {
    // Path 0 over switch 1 blackholes; path 1 over switch 2 is clean.
    let table = table(&[&[0, 1, 9], &[0, 2, 9]]);
    let mut rounds = Rounds::new();
    for _ in 0..4 {
        assert_eq!(rounds.round(&table, &[0], true), []);
    }
    // Four loss samples: both of path 0's edges, none of path 1's.
    let suspected = [
        Effect::Failover(edge(0, 1)),
        report(edge(0, 1), 1000, 4, 0, 1),
        Effect::Failover(edge(1, 9)),
        report(edge(1, 9), 1000, 4, 0, 2),
    ];
    assert_eq!(rounds.round(&table, &[0], true), suspected);
    // The path heals. EWMA 0.6, 0.36: still suspect, re-reported at
    // most every 10 ms. 0.216 … 0.078: neither suspect nor clean —
    // nothing moves. 0.047: released and reported clean.
    assert_eq!(rounds.round(&table, &[], true), []);
    let renewed = [
        report(edge(0, 1), 360, 6, 0, 3),
        report(edge(1, 9), 360, 6, 0, 4),
    ];
    assert_eq!(rounds.round(&table, &[], true), renewed);
    for _ in 0..3 {
        assert_eq!(rounds.round(&table, &[], true), []);
        assert!(rounds.detector.holds(edge(0, 1)));
    }
    let cleared = [
        Effect::Settle(edge(0, 1)),
        report(edge(0, 1), 47, 10, 0, 5),
        Effect::Settle(edge(1, 9)),
        report(edge(1, 9), 47, 10, 0, 6),
    ];
    assert_eq!(rounds.round(&table, &[], true), cleared);
    assert!(rounds.detector.held().is_empty());
}

/// The edges `lose` gets suspected on `paths` once enough samples are in.
fn suspects(paths: &[&[u64]], lose: &[usize]) -> Vec<Edge> {
    let (table, mut rounds) = (table(paths), Rounds::new());
    let last = (0..5).map(|_| rounds.round(&table, lose, false)).last();
    let failover = |e: Effect| match e {
        Effect::Failover(edge) => edge,
        other => panic!("without a controller nothing else is decided: {other:?}"),
    };
    last.unwrap().into_iter().map(failover).collect()
}

#[test]
fn detector_attributes_common_cause_before_the_union() {
    // Two bad paths sharing one edge: that edge alone.
    assert_eq!(
        suspects(&[&[0, 1, 9], &[0, 1, 8, 9], &[0, 2, 9]], &[0, 1]),
        [edge(0, 1)]
    );
    // Two bad paths sharing nothing: distinct causes, the blunt union.
    let union = [edge(0, 1), edge(0, 2), edge(1, 9), edge(2, 9)];
    assert_eq!(suspects(&[&[0, 1, 9], &[0, 2, 9]], &[0, 1]), union);
    // The one shared edge is demonstrably healthy (a clean path crosses
    // it): the union again, minus every healthy path's edges.
    let shared: [&[u64]; 3] = [&[0, 1, 7, 9], &[0, 1, 8, 9], &[0, 1, 9]];
    assert_eq!(
        suspects(&shared, &[0, 1]),
        [edge(1, 7), edge(1, 8), edge(7, 9), edge(8, 9)]
    );
}

#[test]
fn detector_lapses_controller_quarantine_but_keeps_its_own_evidence() {
    let table = table(&[&[0, 1, 9], &[0, 2, 9]]);
    let mut rounds = Rounds::new();
    for _ in 0..5 {
        rounds.round(&table, &[0], false);
    }
    // The controller quarantines a locally held edge and a foreign one,
    // refreshes only the foreign one once, then goes silent.
    rounds.detector.on_verdict(at_ms(25), edge(0, 1), true);
    rounds.detector.on_verdict(at_ms(25), edge(4, 5), true);
    rounds.detector.on_verdict(at_ms(100), edge(4, 5), true);
    let expected = BTreeSet::from([edge(0, 1), edge(1, 9), edge(4, 5)]);
    assert_eq!(rounds.detector.held(), expected);
    let mut lapsed = Vec::new();
    while rounds.now < 355 {
        let now = rounds.now + 5;
        let settle = |e: Effect| match e {
            Effect::Settle(edge) => (now, edge),
            other => panic!("only lapses are decided here: {other:?}"),
        };
        lapsed.extend(rounds.round(&table, &[0], false).into_iter().map(settle));
    }
    // Strictly more than 250 ms after the last assertion, each.
    assert_eq!(lapsed, [(280, edge(0, 1)), (355, edge(4, 5))]);
    assert_eq!(
        rounds.detector.held(),
        BTreeSet::from([edge(0, 1), edge(1, 9)])
    );
    // A hard-down edge sheds everything, a pardon only the controller's.
    rounds.detector.on_verdict(at_ms(360), edge(1, 9), false);
    rounds.detector.forget_edge(edge(0, 1));
    assert_eq!(rounds.detector.held(), BTreeSet::from([edge(1, 9)]));
}

#[test]
fn detector_rate_limits_reports_and_spends_no_sequence_without_a_controller() {
    let table = table(&[&[0, 1], &[0, 2]]);
    let mut rounds = Rounds::new();
    let reports = |effects: Vec<Effect>| -> Vec<Effect> {
        let is_report = |e: &Effect| matches!(e, Effect::Report(_));
        effects.into_iter().filter(is_report).collect()
    };
    for _ in 0..5 {
        assert_eq!(reports(rounds.round(&table, &[0], false)), []);
    }
    // A controller appears: first report now, the next 10 ms later.
    assert_eq!(
        reports(rounds.round(&table, &[0], true)),
        [report(edge(0, 1), 1000, 5, 0, 1)]
    );
    assert_eq!(reports(rounds.round(&table, &[0], true)), []);
    assert_eq!(
        reports(rounds.round(&table, &[0], true)),
        [report(edge(0, 1), 1000, 7, 0, 2)]
    );
}

/// One agent with detection on in a bare world (no wires: every probe
/// is lost), the path set of `detector_*` installed by hand.
struct Rig {
    world: World,
    addr: dumbnet_sim::NodeAddr,
    epoch: u64,
}

impl Rig {
    fn new() -> Rig {
        let config = HostAgentConfig {
            gray_detect: Some(GrayDetectConfig::default()),
            ..HostAgentConfig::default()
        };
        let mut world = World::new(11);
        let addr = world.add_node(Box::new(HostAgent::new(HostId(1), config)));
        let mut rig = Rig {
            world,
            addr,
            epoch: 0,
        };
        let paths = vec![cached(&[0, 1, 9]), cached(&[0, 2, 9]), cached(&[0, 3, 9])];
        rig.agent().pathtable.install(DST, paths, None);
        rig
    }

    fn agent(&mut self) -> &mut HostAgent {
        self.world.node_mut::<HostAgent>(self.addr).expect("agent")
    }

    fn inject(&mut self, msg: ControlMessage) {
        let pkt = Packet::control(ME, MacAddr::for_host(0), Path::empty(), msg);
        let (now, nic) = (self.world.now(), PortNo::new(1).expect("valid port"));
        self.world.inject(now, self.addr, nic, pkt);
    }

    fn patch(&mut self, delta: TopoDelta) {
        self.epoch += 1;
        let batch = PatchBatch::singleton(self.epoch, delta, 1);
        self.inject(ControlMessage::TopologyPatchBatch(batch));
    }
}

#[derive(Debug, Clone)]
enum Step {
    Wait(u64),
    Reply(u64),
    Quarantine(u64, bool),
    Down(u64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..40).prop_map(Step::Wait),
        (1u64..400).prop_map(Step::Reply),
        ((1u64..5), any::<bool>()).prop_map(|(s, enter)| Step::Quarantine(s, enter)),
        (1u64..5).prop_map(Step::Down),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every step of any input sequence — probe rounds with lost
    /// and answered probes, controller quarantines and pardons (lapsing
    /// when left alone), hard-down patches — the PathTable avoids
    /// exactly the edges the detector holds.
    #[test]
    fn pathtable_avoid_set_is_local_union_controller(steps in proptest::collection::vec(step(), 1..60)) {
        let mut rig = Rig::new();
        for step in steps {
            let wait = match step {
                Step::Wait(ms) => ms,
                Step::Reply(probe_id) => {
                    rig.inject(ControlMessage::PathProbeReply { responder: DST, probe_id });
                    0
                }
                Step::Quarantine(s, enter) => {
                    let (mut delta, edges) = (TopoDelta::default(), vec![edge(s, 0)]);
                    *(if enter { &mut delta.quarantine } else { &mut delta.unquarantine }) = edges;
                    rig.patch(delta);
                    0
                }
                Step::Down(s) => {
                    rig.patch(down(0, s));
                    0
                }
            };
            let until = rig.world.now() + SimDuration::from_millis(wait);
            rig.world.run_until(until);
            let agent = rig.agent();
            let held = agent.gray.as_ref().expect("detection is on").held();
            let avoided: BTreeSet<Edge> = agent.pathtable.quarantined_edges().into_iter().collect();
            prop_assert_eq!(avoided, held);
        }
    }
}

/// The far end of a host's NIC: keeps the destination of every path
/// request the host sends.
#[derive(Default)]
struct Sink(Vec<MacAddr>);

impl Node for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortNo, pkt: Packet) {
        if let Payload::Control(ControlMessage::PathRequest { dst, .. }) = pkt.payload {
            self.0.push(dst);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The controller host 0 is told of.
const CTRL: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);

/// What a host ends with: every cached destination's paths and backup,
/// and the destinations it asked the controller for.
type View = (
    Vec<(MacAddr, Vec<CachedPath>, Option<CachedPath>)>,
    Vec<MacAddr>,
);

/// Host 0 of the testbed, its NIC wired to a [`Sink`], its controller
/// known, with two destinations cached: host 26, whose graph spans both
/// spines, and host 6, whose graph was built with host 0's leaf cut off
/// spine 1. `trunk` is host 0's leaf–spine-0 link, which host 6 cannot
/// do without.
struct Testbed {
    world: World,
    host: NodeAddr,
    sink: NodeAddr,
    trunk: Link,
}

impl Testbed {
    fn new() -> Testbed {
        let g = generators::testbed();
        let topo = &g.topology;
        let leaf = topo.host(HostId(0)).expect("host 0").attached.switch;
        let spine = |ix: usize| g.group("spine")[ix];
        let trunk = *topo.link_between(leaf, spine(0)).expect("trunk");
        let mut cut = topo.clone();
        let spare = topo.link_between(leaf, spine(1)).expect("trunk").id;
        cut.set_link_state(spare, false).expect("link exists");
        let mut agent = HostAgent::new(HostId(0), HostAgentConfig::default());
        for (view, dst) in [(topo, 26), (&cut, 6)] {
            let mut rng = StdRng::seed_from_u64(dst);
            let params = PathGraphParams::default();
            let graph = pathgraph::build(view, HostId(0), HostId(dst), &params, &mut rng);
            let mac = MacAddr::for_host(dst);
            agent.topocache.integrate(mac, graph.expect("graph"), 1);
            let (paths, backup) = agent.topocache.k_paths(mac, 4).expect("cached");
            agent.pathtable.install(mac, paths, backup);
        }
        let mut world = World::new(11);
        let host = world.add_node(Box::new(agent));
        let sink = world.add_node(Box::<Sink>::default());
        let nic = PortNo::new(1).expect("valid port");
        world
            .wire(host, nic, sink, nic, LinkParams::ten_gig())
            .expect("wired");
        let mut testbed = Testbed {
            world,
            host,
            sink,
            trunk,
        };
        let hello = ControlMessage::ControllerHello {
            controller: CTRL,
            path_to_controller: Path::from_ports([1]).expect("valid path"),
            topo_version: 1,
            standby: false,
            term: 1,
        };
        testbed.inject(0, hello);
        testbed
    }

    fn inject(&mut self, at_us: u64, msg: ControlMessage) {
        let pkt = Packet::control(MacAddr::for_host(0), CTRL, Path::empty(), msg);
        let at = SimTime::ZERO + SimDuration::from_micros(at_us);
        let nic = PortNo::new(1).expect("valid port");
        self.world.inject(at, self.host, nic, pkt);
    }

    /// One of the trunk's ports announcing `up` with sequence `seq`.
    fn alarm(&mut self, at_us: u64, up: bool, seq: u64) {
        let port = self.trunk.a;
        let event = LinkEvent {
            switch: port.switch,
            port: port.port,
            up,
            seq,
        };
        self.inject(at_us, ControlMessage::LinkNotification { event, ttl: 0 });
    }

    /// The controller's stage-2 patch taking the trunk down.
    fn patch(&mut self, at_us: u64) {
        let delta = down(self.trunk.a.switch.get(), self.trunk.b.switch.get());
        let batch = PatchBatch::singleton(2, delta, 1);
        self.inject(at_us, ControlMessage::TopologyPatchBatch(batch));
    }

    /// Runs 10 ms, then reads every cached destination's PathTable
    /// entry and the path requests sent.
    fn settle(mut self) -> View {
        self.world
            .run_until(SimTime::ZERO + SimDuration::from_millis(10));
        let agent = self.world.node::<HostAgent>(self.host).expect("agent");
        let table = &agent.pathtable;
        let entries = table.destinations().into_iter().map(|dst| {
            let entry = table.entry(dst).expect("cached");
            (dst, entry.paths.clone(), entry.backup.clone())
        });
        let entries = entries.collect();
        let requests = self.world.node::<Sink>(self.sink).expect("sink").0.clone();
        (entries, requests)
    }
}

#[test]
fn stage_two_alone_leaves_the_host_where_both_stages_do() {
    // One host hears the switch's alarm and then the committed patch;
    // the other's flood copies were all lost, so it hears the patch only.
    let mut both = Testbed::new();
    both.alarm(1_000, false, 1);
    both.patch(2_000);
    let mut patch_only = Testbed::new();
    patch_only.patch(2_000);
    let trunk = patch_only.trunk;
    let (entries, requests) = patch_only.settle();
    assert_eq!(both.settle(), (entries.clone(), requests.clone()));
    // Host 26 is re-installed with k = 4 paths that avoid the trunk; host
    // 6 lost every path, so it left the table and went to the
    // controller, once.
    assert_eq!(
        entries.iter().map(|e| e.0).collect::<Vec<_>>(),
        [MacAddr::for_host(26)]
    );
    let uses_trunk = |p: &CachedPath| p.uses_edge(trunk.a.switch, trunk.b.switch);
    assert!(entries[0].1.len() == 4 && !entries[0].1.iter().any(uses_trunk));
    assert_eq!(requests, [MacAddr::for_host(6)]);
}

#[test]
fn a_down_alarm_older_than_the_ports_up_alarm_changes_nothing() {
    let untouched = Testbed::new().settle();
    let mut reordered = Testbed::new();
    reordered.alarm(1_000, true, 2);
    reordered.alarm(2_000, false, 1);
    assert_eq!(reordered.settle(), untouched);
}

/// Controller `n`, reached over a one-hop path of port `n`.
fn ctrl(n: u8) -> (MacAddr, Path) {
    (MacAddr([2, 0, 0, 0, 1, n]), Path::from_ports([n]).unwrap())
}

fn host_mac(n: u8) -> MacAddr {
    MacAddr([2, 0, 0, 0, 0, n])
}

/// What a cache miss on a data packet to `dst` emits at `ms`.
fn miss(retry: &mut RequestRetry, ms: u64, dst: MacAddr) -> Vec<Effect> {
    let mut out = Vec::new();
    let pkt = Packet::data(dst, ME, Path::empty(), 7, 1, 100);
    retry.on_miss(at_ms(ms), pkt, &mut out);
    out
}

const RETRY_ARMED: Effect = Effect::Retry(SimDuration::from_millis(50));

/// A core that has heard the leader `ctrl(1)`.
fn led() -> RequestRetry {
    let mut retry = RequestRetry::default();
    retry.on_hello(at_ms(0), ctrl(1), true, &mut Vec::new());
    retry
}

#[test]
fn retry_asks_once_per_destination_and_arms_the_sweep_once() {
    let mut retry = led();
    assert_eq!(
        miss(&mut retry, 1, DST),
        [Effect::Request(ctrl(1), DST, 1), RETRY_ARMED]
    );
    // The same destination again: parked behind the owed request.
    assert_eq!(miss(&mut retry, 2, DST), []);
    // Another destination is asked for, but the sweep is armed already.
    assert_eq!(
        miss(&mut retry, 3, host_mac(8)),
        [Effect::Request(ctrl(1), host_mac(8), 2)]
    );
    // The sweep fires: the timer is free to arm again.
    assert_eq!(retry.on_sweep(), [host_mac(8), DST]);
    assert_eq!(
        miss(&mut retry, 4, host_mac(7)),
        [Effect::Request(ctrl(1), host_mac(7), 3), RETRY_ARMED]
    );
}

#[test]
fn retry_presumes_a_reply_lost_after_50_ms_and_not_before() {
    let mut retry = led();
    miss(&mut retry, 10, DST);
    let mut out = Vec::new();
    retry.ask(at_ms(59), DST, &mut out);
    assert_eq!(out, []);
    retry.ask(at_ms(60), DST, &mut out);
    assert_eq!(out, [Effect::Request(ctrl(1), DST, 2)]);
}

#[test]
fn retry_drops_replies_whose_request_is_gone() {
    let mut retry = led();
    miss(&mut retry, 0, DST);
    assert_eq!(retry.on_reply(99), None);
    // Re-asked at 50 ms: the first request's late reply is stale.
    retry.ask(at_ms(50), DST, &mut Vec::new());
    assert_eq!(retry.on_reply(1), None);
    assert_eq!(retry.on_reply(2), Some(DST));
    assert_eq!(retry.on_reply(2), None);
}

#[test]
fn retry_turns_over_the_group_and_the_leader_is_primary() {
    let mut retry = RequestRetry::default();
    // No controller yet: the packet parks, nobody is asked.
    assert_eq!(miss(&mut retry, 0, DST), [RETRY_ARMED]);
    assert_eq!(retry.primary(), None);
    let mut out = Vec::new();
    retry.on_hello(at_ms(1), ctrl(1), true, &mut out);
    assert_eq!(out, [Effect::Request(ctrl(1), DST, 1)]);
    // A standby joins the group, not the primary's seat.
    retry.on_hello(at_ms(2), ctrl(2), false, &mut out);
    assert_eq!(retry.primary(), Some(&ctrl(1)));
    let asked: Vec<Effect> = (3..6)
        .flat_map(|n| miss(&mut retry, 3, host_mac(n)))
        .collect();
    let expected = [
        Effect::Request(ctrl(2), host_mac(3), 2),
        Effect::Request(ctrl(1), host_mac(4), 3),
        Effect::Request(ctrl(2), host_mac(5), 4),
    ];
    assert_eq!(asked, expected);
    // A member heard again moves to the back under its newest path.
    let moved = (ctrl(1).0, Path::from_ports([9]).unwrap());
    retry.on_hello(at_ms(4), moved.clone(), true, &mut Vec::new());
    assert_eq!(retry.primary(), Some(&moved));
    let asked: Vec<Effect> = (6..8)
        .flat_map(|n| miss(&mut retry, 5, host_mac(n)))
        .collect();
    let expected = [
        Effect::Request(ctrl(2), host_mac(6), 5),
        Effect::Request(moved, host_mac(7), 6),
    ];
    assert_eq!(asked, expected);
}

#[test]
fn retry_reasks_parked_destinations_in_order_when_a_controller_appears() {
    let mut retry = RequestRetry::default();
    for n in [5, 3, 4] {
        miss(&mut retry, 0, host_mac(n));
    }
    let mut out = Vec::new();
    retry.on_hello(at_ms(1), ctrl(1), false, &mut out);
    let expected: Vec<Effect> = (3..6)
        .map(|n| Effect::Request(ctrl(1), host_mac(n), u64::from(n) - 2))
        .collect();
    assert_eq!(out, expected);
    assert_eq!(retry.primary(), None, "a standby is no primary");
}
