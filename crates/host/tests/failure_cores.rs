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
use dumbnet_host::pathtable::CachedPath;
use dumbnet_host::{GrayDetectConfig, HostAgent, HostAgentConfig};
use dumbnet_packet::control::{LinkEvent, PatchBatch, PatchEntry, TopoDelta};
use dumbnet_packet::{ControlMessage, Packet, Payload};
use dumbnet_sim::{Ctx, Engine, LinkParams, Node, NodeAddr, World};
use dumbnet_topology::{generators, pathgraph, Link, PathGraphParams};
use dumbnet_types::{norm_edge, HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId};
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

/// An acceptor whose table already holds version `held` (epoch `held`
/// applied whole; nothing held at 0).
fn acceptor_at(held: u64) -> PatchAcceptor {
    let mut acceptor = PatchAcceptor::default();
    if held > 0 {
        let mut out = Vec::new();
        acceptor.on_batch(frame(held, (0, 1), &[held]), &mut out);
        assert_eq!(out, [apply(held, &[held])]);
    }
    assert_eq!(acceptor.version(), held);
    acceptor
}

/// Feeds `frames` to an acceptor at version `held`; returns the effects
/// of each frame. An applied epoch moves the version for the frames
/// after it.
fn accept(held: u64, frames: Vec<PatchBatch>) -> Vec<Vec<Effect>> {
    let mut acceptor = acceptor_at(held);
    let step = |batch| {
        let mut out = Vec::new();
        acceptor.on_batch(batch, &mut out);
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
    acceptor.on_batch(frame(9, (0, 1), &[9]), &mut out);
    assert!(!acceptor.admit_term(4, &mut out));
    assert_eq!(out, [Effect::Fenced, Effect::Fenced]);
    assert_eq!(acceptor.version(), 0, "a fenced batch moves nothing");
    // The fence sits before the epoch check and moves with a batch.
    let newer = PatchBatch {
        term: 6,
        ..frame(9, (0, 1), &[9])
    };
    acceptor.on_batch(newer, &mut out);
    assert!(!acceptor.admit_term(5, &mut out));
    assert_eq!(out[2..], [apply(9, &[9]), Effect::Fenced]);
    assert_eq!(acceptor.version(), 9);
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

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn hops(switches: &[u64]) -> Vec<SwitchId> {
    switches.iter().map(|&s| SwitchId(s)).collect()
}

/// A detector with the default knobs (blame at a loss of 0.3 once walks
/// have 4 samples), a clock that ticks every 5 ms, and the probes of
/// the round before.
struct Rounds {
    detector: GrayDetector,
    now: u64,
    owed: Vec<(Vec<SwitchId>, u64)>,
}

impl Rounds {
    fn new() -> Rounds {
        Rounds {
            detector: GrayDetector::new(ME, GrayDetectConfig::default()),
            now: 0,
            owed: Vec::new(),
        }
    }

    /// One round over the cached `walks`: answers the probes of the
    /// round before whose walk crosses none of the `faulty` edges,
    /// ticks, and returns what the round decided (the probes it sent
    /// aside, which `self.owed` keeps, and the loss samples and re-arm).
    fn round(&mut self, walks: &[&[u64]], faulty: &[Edge], can_report: bool) -> Vec<Effect> {
        let lost = |walk: &[SwitchId]| {
            let mut edges = walk.windows(2).map(|w| norm_edge(w[0], w[1]));
            edges.any(|e| faulty.contains(&e))
        };
        self.round_with(walks, lost, can_report)
    }

    /// [`Rounds::round`] with the probes whose walk `lost` says lost.
    fn round_with(
        &mut self,
        walks: &[&[u64]],
        lost: impl Fn(&[SwitchId]) -> bool,
        can_report: bool,
    ) -> Vec<Effect> {
        for (walk, probe_id) in std::mem::take(&mut self.owed) {
            if !lost(&walk) {
                self.detector.on_reply(probe_id);
            }
        }
        self.now += 5;
        let mut out = Vec::new();
        let walks = walks.iter().map(|w| hops(w)).collect();
        self.detector
            .on_tick(at_ms(self.now), walks, can_report, &mut out);
        assert_eq!(out.pop(), Some(Effect::Arm(SimDuration::from_millis(5))));
        let owed = &mut self.owed;
        out.retain(|e| match e {
            Effect::Probe(walk, probe_id) => {
                owed.push((walk.clone(), *probe_id));
                false
            }
            other => *other != Effect::ProbeLost,
        });
        out
    }

    /// The walks probed in the last round.
    fn probed(&self) -> Vec<Vec<SwitchId>> {
        self.owed.iter().map(|(walk, _)| walk.clone()).collect()
    }
}

fn report(edge: Edge, loss_permille: u16, seq: u64) -> Effect {
    Effect::Report(ControlMessage::LinkSuspect {
        reporter: ME,
        edge,
        loss_permille,
        seq,
    })
}

#[test]
fn detector_blames_the_one_edge_its_lossy_walks_share_and_keeps_a_walk_across_it() {
    // Both walks over switch 1 lose everything; the one over 2 is clean.
    let walks: [&[u64]; 3] = [&[0, 1, 9], &[0, 1, 8, 9], &[0, 2, 9]];
    let mut rounds = Rounds::new();
    for _ in 0..4 {
        assert_eq!(rounds.round(&walks, &[edge(0, 1)], true), []);
    }
    // Four samples each: (0,1) tops the vote, and the walks it explains
    // vote for nothing else — not (1,9), (1,8) or (8,9).
    let blamed = [Effect::Failover(edge(0, 1)), report(edge(0, 1), 1000, 1)];
    assert_eq!(rounds.round(&walks, &[edge(0, 1)], true), blamed);
    // From now on the walk out to switch 1 and back is probed every
    // round, and the three cached walks share the other two slots.
    let mut cached = BTreeSet::new();
    for _ in 0..3 {
        rounds.round(&walks, &[edge(0, 1)], true);
        let probed = rounds.probed();
        assert_eq!((probed.len(), &probed[0]), (3, &hops(&[0, 1])));
        cached.extend(probed[1..].iter().cloned());
    }
    assert_eq!(cached, walks.iter().map(|w| hops(w)).collect());
    assert_eq!(rounds.detector.held(), BTreeSet::from([edge(0, 1)]));
}

#[test]
fn detector_blames_neither_of_two_edges_no_walk_tells_apart() {
    // Only one walk crosses switches 1 and 2: its three edges tie.
    let walks: [&[u64]; 2] = [&[0, 1, 2, 9], &[0, 3, 9]];
    let mut rounds = Rounds::new();
    for _ in 0..8 {
        assert_eq!(rounds.round(&walks, &[edge(1, 2)], false), []);
    }
    assert!(rounds.detector.held().is_empty());
}

#[test]
fn detector_explains_away_one_fault_and_finds_the_next() {
    // (0,1) eats two walks and (2,9) a third; (0,2) rides a clean walk
    // too, so its own rate clears it, and once (0,1) is blamed the
    // walks it explains leave (1,9) and (1,8) no votes.
    let walks: [&[u64]; 5] = [&[0, 1, 9], &[0, 1, 8], &[0, 2, 9], &[0, 2, 7], &[0, 3, 9]];
    let faulty = [edge(0, 1), edge(2, 9)];
    let mut rounds = Rounds::new();
    let last = (0..5).map(|_| rounds.round(&walks, &faulty, false)).last();
    let failovers = [Effect::Failover(edge(0, 1)), Effect::Failover(edge(2, 9))];
    assert_eq!(last.unwrap(), failovers);
}

#[test]
fn detector_releases_on_the_edges_own_rate_never_on_one_clean_round() {
    let walks: [&[u64]; 3] = [&[0, 1, 9], &[0, 1, 8], &[0, 2, 9]];
    let mut rounds = Rounds::new();
    let mut decided = Vec::new();
    for _ in 0..10 {
        decided.extend(rounds.round(&walks, &[edge(0, 1)], false));
    }
    assert_eq!(decided, [Effect::Failover(edge(0, 1))]);
    // The fault flickers: every other round is clean, and the edge stays.
    for flicker in 0..20 {
        let faulty: &[Edge] = if flicker % 2 == 0 { &[] } else { &[edge(0, 1)] };
        rounds.round(&walks, faulty, false);
        assert_eq!(rounds.detector.held(), BTreeSet::from([edge(0, 1)]));
    }
    // Healed: the kept walk's rate decays under 5 % before the release,
    // which is reported clean.
    let released = |d: &Vec<Effect>| d.contains(&Effect::Settle(edge(0, 1)));
    let clean: Vec<Vec<Effect>> = (0..30).map(|_| rounds.round(&walks, &[], true)).collect();
    let at = clean.iter().position(released);
    assert!(
        at.is_some_and(|n| n >= 5),
        "released after {at:?} clean rounds"
    );
    assert!(
        matches!(clean[at.unwrap()][1], Effect::Report(ControlMessage::LinkSuspect { loss_permille, .. }) if loss_permille <= 50)
    );
    assert!(rounds.detector.held().is_empty());
}

#[test]
fn detector_blames_no_lesser_edge_while_the_most_voted_one_is_not_lossy_enough() {
    // The walk over (1,9) loses everything; the other walk over (0,1)
    // loses one probe in eight, so (0,1) tops the vote without its own
    // rate reaching the threshold. Blaming (1,9) instead would pin the
    // loss on an edge the vote ranks second.
    let walks: [&[u64]; 3] = [&[0, 1, 9], &[0, 1, 8], &[0, 2, 9]];
    let mut rounds = Rounds::new();
    for n in 0..40 {
        let lost =
            |walk: &[SwitchId]| walk == hops(&[0, 1, 9]) || n % 8 == 4 && walk == hops(&[0, 1, 8]);
        assert_eq!(rounds.round_with(&walks, lost, false), [], "round {n}");
    }
    assert!(rounds.detector.held().is_empty());
}

#[test]
fn detector_renews_the_report_of_a_held_edge_no_vote_singles_out() {
    let walks: [&[u64]; 4] = [&[0, 1, 2, 9], &[0, 1, 2, 8], &[0, 1, 3, 9], &[0, 4, 2, 9]];
    let mut rounds = Rounds::new();
    for _ in 0..5 {
        rounds.round(&walks, &[edge(1, 2)], false);
    }
    assert_eq!(rounds.detector.held(), BTreeSet::from([edge(1, 2)]));
    // Re-installed around (1,2): only the kept walk out to switch 2
    // crosses it, and there (0,1) ties with it, so no round blames it
    // again. Its own rate still holds it and renews its report.
    let around: [&[u64]; 2] = [&[0, 4, 2, 9], &[0, 4, 2, 8]];
    let decided: Vec<Effect> = (0..20)
        .flat_map(|_| rounds.round(&around, &[edge(1, 2)], true))
        .collect();
    let renewals: Vec<u64> = decided
        .iter()
        .map(|effect| match effect {
            Effect::Report(ControlMessage::LinkSuspect {
                edge: e,
                loss_permille: 1000,
                seq,
                ..
            }) if *e == edge(1, 2) => *seq,
            other => panic!("only renewals are decided here: {other:?}"),
        })
        .collect();
    assert_eq!(renewals, (1..=10).collect::<Vec<u64>>());
    assert_eq!(rounds.detector.held(), BTreeSet::from([edge(1, 2)]));
}

#[test]
fn detector_keeps_an_edge_whose_every_walk_another_blame_explains() {
    // (1,2) is held on its own walks; then (0,1), in front of it on
    // every one of them, fails too and is blamed. No walk samples (1,2)
    // alone any more: it stays held and nothing is reported for it.
    let walks: [&[u64]; 4] = [&[0, 1, 2, 9], &[0, 1, 2, 8], &[0, 1, 3, 9], &[0, 4, 2, 9]];
    let mut rounds = Rounds::new();
    let mut decided = Vec::new();
    for _ in 0..6 {
        decided.extend(rounds.round(&walks, &[edge(1, 2)], true));
    }
    assert_eq!(decided[0], Effect::Failover(edge(1, 2)));
    let both = [edge(0, 1), edge(1, 2)];
    let decided: Vec<Effect> = (0..20)
        .flat_map(|_| rounds.round(&walks, &both, true))
        .collect();
    assert!(decided.contains(&Effect::Failover(edge(0, 1))));
    for effect in &decided {
        let clean = matches!(effect, Effect::Report(ControlMessage::LinkSuspect { loss_permille, .. }) if *loss_permille <= 50);
        assert!(!matches!(effect, Effect::Settle(_)) && !clean, "{effect:?}");
    }
    assert_eq!(rounds.detector.held(), BTreeSet::from(both));
}

#[test]
fn detector_lapses_controller_quarantine_but_keeps_its_own_evidence() {
    let walks: [&[u64]; 3] = [&[0, 1, 9], &[0, 1, 8], &[0, 2, 9]];
    let mut rounds = Rounds::new();
    for _ in 0..5 {
        rounds.round(&walks, &[edge(0, 1)], false);
    }
    // The controller quarantines a locally held edge and a foreign one,
    // refreshes only the foreign one once, then goes silent.
    rounds.detector.on_verdict(at_ms(25), edge(0, 1), true);
    rounds.detector.on_verdict(at_ms(25), edge(4, 5), true);
    rounds.detector.on_verdict(at_ms(100), edge(4, 5), true);
    let expected = BTreeSet::from([edge(0, 1), edge(4, 5)]);
    assert_eq!(rounds.detector.held(), expected);
    let mut lapsed = Vec::new();
    while rounds.now < 355 {
        let now = rounds.now + 5;
        let settle = |e: Effect| match e {
            Effect::Settle(edge) => (now, edge),
            other => panic!("only lapses are decided here: {other:?}"),
        };
        let decided = rounds.round(&walks, &[edge(0, 1)], false);
        lapsed.extend(decided.into_iter().map(settle));
    }
    // Strictly more than 250 ms after the last assertion, each.
    assert_eq!(lapsed, [(280, edge(0, 1)), (355, edge(4, 5))]);
    assert_eq!(rounds.detector.held(), BTreeSet::from([edge(0, 1)]));
    // A hard-down edge sheds everything, a pardon only the controller's.
    rounds.detector.on_verdict(at_ms(360), edge(4, 5), true);
    rounds.detector.on_verdict(at_ms(360), edge(4, 5), false);
    rounds.detector.forget_edge(edge(0, 1));
    assert!(rounds.detector.held().is_empty());
}

#[test]
fn detector_rate_limits_renewals_and_spends_no_sequence_without_a_controller() {
    let walks: [&[u64]; 2] = [&[0, 1], &[0, 2]];
    let mut rounds = Rounds::new();
    let reports = |effects: Vec<Effect>| -> Vec<Effect> {
        let is_report = |e: &Effect| matches!(e, Effect::Report(_));
        effects.into_iter().filter(is_report).collect()
    };
    for _ in 0..5 {
        assert_eq!(reports(rounds.round(&walks, &[edge(0, 1)], false)), []);
    }
    // A controller appears: first report now, the next 10 ms later.
    let mut renewed = || reports(rounds.round(&walks, &[edge(0, 1)], true));
    assert_eq!(renewed(), [report(edge(0, 1), 1000, 1)]);
    assert_eq!(renewed(), []);
    assert_eq!(renewed(), [report(edge(0, 1), 1000, 2)]);
}

#[derive(Debug, Clone)]
enum Step {
    Wait(u64),
    Quarantine(usize, bool),
    Down(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..40).prop_map(Step::Wait),
        ((0usize..4), any::<bool>()).prop_map(|(t, enter)| Step::Quarantine(t, enter)),
        (0usize..4).prop_map(Step::Down),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every step of any input sequence — probe rounds (every
    /// probe is lost), controller quarantines and pardons (lapsing when
    /// left alone), hard-down patches — each cached destination holds
    /// paths that avoid every held edge, or, when the TopoCache has
    /// none, the paths over live links: a degraded path beats none.
    #[test]
    fn cached_paths_avoid_the_held_edges_whenever_the_topocache_can(
        steps in proptest::collection::vec(step(), 1..40)
    ) {
        let mut testbed = Testbed::with_gray();
        let trunks = testbed.trunks.clone();
        let mut epoch = 1;
        for step in steps {
            let at = testbed.world.now().since(SimTime::ZERO).as_millis_f64() as u64 * 1_000 + 1;
            let wait = match step {
                Step::Wait(ms) => ms,
                Step::Quarantine(t, enter) => {
                    let (mut delta, edges) = (TopoDelta::default(), vec![trunks[t]]);
                    *(if enter { &mut delta.quarantine } else { &mut delta.unquarantine }) = edges;
                    epoch += 1;
                    testbed.inject(at, ControlMessage::TopologyPatchBatch(PatchBatch::singleton(epoch, delta, 1)));
                    1
                }
                Step::Down(t) => {
                    epoch += 1;
                    let delta = down(trunks[t].0.get(), trunks[t].1.get());
                    testbed.inject(at, ControlMessage::TopologyPatchBatch(PatchBatch::singleton(epoch, delta, 1)));
                    1
                }
            };
            let until = testbed.world.now() + SimDuration::from_millis(wait);
            testbed.world.run_until(until);
            let agent = testbed.world.node::<HostAgent>(testbed.host).expect("agent");
            let held = agent.gray.as_ref().expect("detection is on").held();
            let mut cache = agent.topocache.clone();
            for dst in agent.pathtable.destinations() {
                let entry = agent.pathtable.entry(dst).expect("cached");
                let cached: Vec<CachedPath> = entry.all_paths().cloned().collect();
                let (paths, backup) = cache.k_paths_avoiding(dst, 4, &held).expect("graph");
                let avoiding: Vec<CachedPath> = paths.into_iter().chain(backup).collect();
                let expected = if avoiding.is_empty() {
                    let (paths, backup) = cache.k_paths(dst, 4).expect("graph");
                    paths.into_iter().chain(backup).collect()
                } else {
                    avoiding
                };
                prop_assert_eq!(cached, expected);
            }
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
/// do without; `trunks` are the four of host 0's and host 26's leaves.
struct Testbed {
    world: World,
    host: NodeAddr,
    sink: NodeAddr,
    trunk: Link,
    trunks: Vec<Edge>,
}

impl Testbed {
    fn new() -> Testbed {
        Testbed::build(None)
    }

    /// The same host with gray detection on: every probe it sends is
    /// lost in the sink.
    fn with_gray() -> Testbed {
        Testbed::build(Some(GrayDetectConfig::default()))
    }

    fn build(gray_detect: Option<GrayDetectConfig>) -> Testbed {
        let g = generators::testbed();
        let topo = &g.topology;
        let leaf = |h: u64| topo.host(HostId(h)).expect("host").attached.switch;
        let spine = |ix: usize| g.group("spine")[ix];
        let trunk = *topo.link_between(leaf(0), spine(0)).expect("trunk");
        let mut trunks = Vec::new();
        for (h, ix) in [(0, 0), (0, 1), (26, 0), (26, 1)] {
            trunks.push(norm_edge(leaf(h), spine(ix)));
        }
        let mut cut = topo.clone();
        let spare = topo.link_between(leaf(0), spine(1)).expect("trunk").id;
        cut.set_link_state(spare, false).expect("link exists");
        let config = HostAgentConfig {
            gray_detect,
            ..HostAgentConfig::default()
        };
        let mut agent = HostAgent::new(HostId(0), config);
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
            trunks,
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
        self.clone_view()
    }

    /// Every cached destination's PathTable entry and the path requests
    /// sent, now.
    fn clone_view(&self) -> View {
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
fn a_quarantine_reinstalls_around_the_edge_or_keeps_the_degraded_paths() {
    // The controller holds host 0's leaf–spine-0 trunk. Host 26 is
    // re-installed over paths that avoid it; host 6's graph has none,
    // so host 6 keeps the paths it has rather than none. A pardon puts
    // host 26's paths back.
    let mut testbed = Testbed::with_gray();
    let (all, _) = testbed.clone_view();
    let trunk = testbed.trunk;
    let quarantine = |enter: bool| {
        let mut delta = TopoDelta::default();
        let edges = vec![(trunk.a.switch, trunk.b.switch)];
        *(if enter {
            &mut delta.quarantine
        } else {
            &mut delta.unquarantine
        }) = edges;
        delta
    };
    let batch = PatchBatch::singleton(2, quarantine(true), 1);
    testbed.inject(1_000, ControlMessage::TopologyPatchBatch(batch));
    testbed.world.run_until(at_ms(2));
    let (held, _) = testbed.clone_view();
    let uses_trunk = |p: &CachedPath| p.uses_edge(trunk.a.switch, trunk.b.switch);
    let host_26 = &held[1];
    assert_eq!(host_26.0, MacAddr::for_host(26));
    assert!(!host_26.1.is_empty() && !host_26.1.iter().chain(&host_26.2).any(uses_trunk));
    assert_eq!((&held[0], &all[0].0), (&all[0], &MacAddr::for_host(6)));
    let batch = PatchBatch::singleton(3, quarantine(false), 1);
    testbed.inject(3_000, ControlMessage::TopologyPatchBatch(batch));
    assert_eq!(testbed.settle(), (all, vec![]));
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
