//! Bounded-exhaustive exploration of the consensus core.
//!
//! Three [`Replica`]s and the set of frames sent so far, stepped through
//! *every* interleaving of: deliver any frame; fire any armed timer;
//! propose a change on a leader; crash-restart or pause any replica — a
//! plain depth-first search with visited-state hashing, bounded by
//! term, log length, fault budgets and depth. No `World`, no clock, no
//! RNG: the core's `on_*(now, …, out)` calling convention is the whole
//! interface, and this file is a second adapter beside `node.rs`.
//!
//! The network is the adversary, and needs only the one action. A frame
//! is never consumed, so any frame can be delivered again at any later
//! point (duplication, reordering); nothing ever forces a delivery, so
//! a frame left in flight forever is a dropped frame and a replica none
//! of whose traffic is delivered is partitioned off. Every drop,
//! duplicate and partition schedule is therefore a path the search
//! already walks, at no cost in depth.
//!
//! Time is abstracted rather than sampled. The replicas run with zero
//! heartbeat and takeover periods, so a takeover timer that fires
//! always finds its patience exhausted (the adversarial schedule: any
//! heartbeat may be late) and timers fire in any order. The lease is the
//! one place real time matters; a *pause* moves one replica's clock past
//! its lease window, so everything it heard before is stale.
//!
//! Checked at every reachable state (the `core::chaos` leadership
//! invariants, DESIGN.md §6.1–6.3):
//!
//! 1. **One leader per term** — no term is won twice, and no two
//!    replicas lead at the same log term.
//! 2. **Term-monotone logs** — entry terms never fall as the index
//!    rises.
//! 3. **Committed-prefix immutability and agreement** — once any
//!    replica reports an index committed, every replica that ever
//!    reports it committed holds the same entry there.
//! 4. **No mutation without a lease** — `may_mutate` implies the
//!    replica leads and has heard a quorum since its last pause.
//! 5. **Leader completeness** — whoever wins a term holds every entry
//!    a majority of replicas stores (the old leader may count it
//!    committed at any moment). This one does *not* hold, see
//!    [`open_finding_a_stale_candidate_can_win`]: the search counts such
//!    wins and does not look beyond them, so 1–4 are established for
//!    all other paths.
//!
//! The bounds are where the protocol is clean, not where the budget
//! ends: with one log entry the first counterexamples to invariant 3
//! are nine actions long (the two `open_finding_*` scripts below), so
//! the log-carrying search stops at eight and only the election-only
//! search (invariants 1 and 4) goes deeper.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use dumbnet_controller::replication::{Effect, LogEntry, Replica, ReplicaRole, Timer};
use dumbnet_packet::control::TopoDelta;
use dumbnet_packet::ControlMessage;
use dumbnet_types::{MacAddr, SimDuration, SimTime, SwitchId};

const N: usize = 3;
const TIMERS: [Timer; 3] = [Timer::Heartbeat, Timer::Takeover, Timer::Election];

/// What bounds one exploration.
#[derive(Clone, Copy)]
struct Bounds {
    /// States whose terms (or votes) pass this are not expanded.
    max_term: u64,
    /// A leader proposes only while its log is shorter than this.
    max_log: usize,
    /// Actions per path.
    max_depth: u8,
    /// Crash-restarts per path.
    crashes: u8,
    /// Clock pauses per path.
    pauses: u8,
    /// Heartbeat rounds per path (each adds a burst per peer to the
    /// net; the other timers are bounded by `max_term`).
    beats: u8,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Action {
    Deliver(usize),
    Fire(usize, Timer),
    Propose(usize),
    CrashRestart(usize),
    Pause(usize),
}

/// One replica with what the harness keeps on its behalf.
#[derive(Clone, Hash)]
struct Node {
    core: Replica,
    /// Armed timers, one flag per [`TIMERS`] slot. (A second chain of
    /// the same timer re-reaches the states the first one does.)
    armed: [bool; 3],
    /// Local clock: the number of pauses so far.
    clock: u64,
    /// The lease oracle: the clock at which the harness last delivered
    /// an ack or sync request from each peer while this replica led.
    heard: [Option<u64>; N],
}

/// A frame on the net: destination, content hash (for canonical order
/// and state hashing) and the message.
type Frame = (usize, u64, Rc<ControlMessage>);

#[derive(Clone)]
struct State {
    nodes: [Rc<Node>; N],
    /// Every distinct frame sent so far, sorted.
    net: Vec<Frame>,
    /// Who won each term (the bootstrap leader holds term 1).
    won: BTreeMap<u64, usize>,
    /// The first entry any replica reported committed at each index.
    ledger: BTreeMap<u64, LogEntry>,
    /// Set by a win that breaks invariant 5; such a state is a leaf.
    stale_leader: Option<String>,
    left: Bounds,
}

fn mac(i: usize) -> MacAddr {
    MacAddr::for_host(i as u64 + 1)
}

fn index_of(m: MacAddr) -> usize {
    (0..N).find(|&i| mac(i) == m).expect("a group member")
}

fn slot_of(timer: Timer) -> usize {
    TIMERS.iter().position(|&t| t == timer).expect("a timer")
}

impl State {
    fn initial(bounds: Bounds) -> State {
        let members: Vec<MacAddr> = (0..N).map(mac).collect();
        let node = |i: usize| {
            let role = if i == 0 {
                ReplicaRole::Leader
            } else {
                ReplicaRole::Follower
            };
            let (beat, patience) = (SimDuration::ZERO, SimDuration::ZERO);
            Rc::new(Node {
                core: Replica::new(mac(i), members.clone(), role, beat, patience),
                armed: [false; 3],
                clock: 0,
                heard: [None; N],
            })
        };
        let mut state = State {
            nodes: std::array::from_fn(node),
            net: Vec::new(),
            won: BTreeMap::from([(1, 0)]),
            ledger: BTreeMap::new(),
            stale_leader: None,
            left: bounds,
        };
        for i in 0..N {
            state.step(i, Replica::on_start).expect("boot is safe");
        }
        state
    }

    /// Two independent 64-bit digests of everything that decides the
    /// future (the path so far does not).
    fn digest(&self) -> (u64, u64) {
        let mut a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        0xD1CEu16.hash(&mut b);
        for h in [&mut a, &mut b] {
            for node in &self.nodes {
                node.hash(h);
            }
            for (to, key, _) in &self.net {
                (to, key).hash(h);
            }
            (&self.won, &self.ledger).hash(h);
            (self.left.crashes, self.left.pauses, self.left.beats).hash(h);
        }
        (a.finish(), b.finish())
    }

    /// Steps replica `i` with one input and applies the effects the way
    /// `Controller::step` does, onto the net instead of a `Ctx`.
    fn step(
        &mut self,
        i: usize,
        input: impl FnOnce(&mut Replica, SimTime, &mut Vec<Effect>),
    ) -> Result<(), String> {
        // The replicas as they are before the step, for invariant 5.
        let others = self.nodes.clone();
        let node = Rc::make_mut(&mut self.nodes[i]);
        let mut out = Vec::new();
        input(&mut node.core, SimTime(node.clock), &mut out);
        let net = &mut self.net;
        let mut send = |to: MacAddr, msg: ControlMessage| {
            let mut h = DefaultHasher::new();
            format!("{msg:?}").hash(&mut h);
            net.push((index_of(to), h.finish(), Rc::new(msg)));
        };
        for effect in out {
            match effect {
                Effect::Send { to, msg } => send(to, msg),
                Effect::Replay { to, beat, entries } => {
                    beat.into_iter().chain(entries).for_each(|m| send(to, m));
                }
                Effect::Campaign { msg, .. } => {
                    let peers = (0..N).filter(|&p| p != i);
                    peers.for_each(|p| send(mac(p), msg.clone()));
                }
                Effect::Arm { timer, .. } => node.armed[slot_of(timer)] = true,
                Effect::Promoted { term } => {
                    if let Some(prev) = self.won.insert(term, i) {
                        return Err(format!(
                            "term {term} won twice: by replica {prev}, then by replica {i}"
                        ));
                    }
                    // 5. Leader completeness: no entry the winner lacks
                    // may sit on a majority (the winner is not among its
                    // holders, so `others` counts them all).
                    let log = node.core.log();
                    let quorum = log.quorum();
                    let held = others.iter().flat_map(|n| n.core.log().entries());
                    let lost = held.filter(|e| log.entry(e.index) != Some(e)).find(|e| {
                        let holds = |n: &&Rc<Node>| n.core.log().entry(e.index) == Some(e);
                        others.iter().filter(holds).count() >= quorum
                    });
                    self.stale_leader = lost.map(|lost| {
                        format!("replica {i} won term {term} without majority-held entry {lost:?}")
                    });
                }
                Effect::Apply { .. } | Effect::SteppedDown | Effect::Dropped => {}
            }
        }
        self.net.sort_by_key(|&(to, key, _)| (to, key));
        self.net.dedup_by_key(|&mut (to, key, _)| (to, key));
        self.check()
    }

    /// The successor under `action`, or the invariant it breaks.
    fn apply(&self, action: Action) -> Result<State, String> {
        let mut next = self.clone();
        match action {
            Action::Deliver(ix) => {
                let (to, _, msg) = next.net[ix].clone();
                // The oracle sees the frame before the core does.
                if let ControlMessage::ReplAck { replica, .. }
                | ControlMessage::ReplSyncRequest { replica, .. } = *msg
                {
                    let node = Rc::make_mut(&mut next.nodes[to]);
                    if node.core.is_leader() {
                        node.heard[index_of(replica)] = Some(node.clock);
                    }
                }
                let msg = ControlMessage::clone(&msg);
                next.step(to, |core, now, out| core.on_message(now, msg, out))?;
            }
            Action::Fire(i, timer) => {
                if timer == Timer::Heartbeat {
                    next.left.beats -= 1;
                }
                Rc::make_mut(&mut next.nodes[i]).armed[slot_of(timer)] = false;
                next.step(i, |core, now, out| core.on_timer(now, timer, out))?;
            }
            Action::Propose(i) => {
                // A payload unique to (proposer, term, position), so two
                // leaders' entries for one index can be told apart.
                let log = next.nodes[i].core.log();
                let tag = SwitchId(log.term() * 100 + log.len() as u64);
                let delta = TopoDelta {
                    down: vec![(SwitchId(i as u64), tag)],
                    ..TopoDelta::default()
                };
                next.step(i, |core, _, out| core.propose(delta, out))?;
            }
            Action::CrashRestart(i) => {
                next.left.crashes -= 1;
                Rc::make_mut(&mut next.nodes[i]).armed = [false; 3];
                next.step(i, Replica::on_restart)?;
            }
            Action::Pause(i) => {
                next.left.pauses -= 1;
                Rc::make_mut(&mut next.nodes[i]).clock += 1;
                next.check()?;
            }
        }
        Ok(next)
    }

    /// Every action enabled here.
    fn actions(&self) -> Vec<Action> {
        let mut actions: Vec<Action> = (0..self.net.len()).map(Action::Deliver).collect();
        for (i, node) in self.nodes.iter().enumerate() {
            for (slot, &timer) in TIMERS.iter().enumerate() {
                if node.armed[slot] && (timer != Timer::Heartbeat || self.left.beats > 0) {
                    actions.push(Action::Fire(i, timer));
                }
            }
            if node.core.is_leader() {
                if node.core.log().len() < self.left.max_log {
                    actions.push(Action::Propose(i));
                }
                if self.left.pauses > 0 {
                    actions.push(Action::Pause(i));
                }
            }
            if self.left.crashes > 0 {
                actions.push(Action::CrashRestart(i));
            }
        }
        actions
    }

    /// Whether the term bound cuts this state off.
    fn out_of_bounds(&self) -> bool {
        self.nodes.iter().any(|n| {
            let log = n.core.log();
            log.term().max(log.voted_in()) > self.left.max_term
        })
    }

    /// Invariants 1–4 of the module docs; also records newly committed
    /// entries in the ledger.
    fn check(&mut self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let log = node.core.log();
            // 1. One leader per log term (the other half — one win per
            // term — is checked where `Promoted` is applied).
            for (j, other) in self.nodes.iter().enumerate().skip(i + 1) {
                if node.core.is_leader()
                    && other.core.is_leader()
                    && log.term() == other.core.log().term()
                {
                    let term = log.term();
                    return Err(format!("replicas {i} and {j} both lead term {term}"));
                }
            }
            // 2. Term-monotone log.
            let terms: Vec<u64> = log.entries().map(|e| e.term).collect();
            if terms.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("replica {i}: entry terms fall: {terms:?}"));
            }
            // 3. Committed prefix: immutable, and equal everywhere.
            for index in 1..=log.committed() {
                let Some(mine) = log.entry(index) else {
                    return Err(format!("replica {i}: committed index {index} not held"));
                };
                let first = self.ledger.entry(index).or_insert_with(|| mine.clone());
                if first != mine {
                    return Err(format!(
                        "replica {i}: committed entry {index} is {mine:?}, \
                         but {first:?} was committed there first"
                    ));
                }
            }
            // 4. The lease.
            if node.core.may_mutate(SimTime(node.clock)) {
                let heard = node.heard.iter().filter(|&&at| at == Some(node.clock));
                if !node.core.is_leader() || 1 + heard.count() < log.quorum() {
                    return Err(format!(
                        "replica {i}: may_mutate without a quorum heard since its last pause"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What one exploration covered.
#[derive(Debug, Default)]
struct Coverage {
    /// Distinct states reached.
    states: usize,
    /// Transitions taken.
    transitions: usize,
    /// Terms won on some path (beyond the bootstrap term).
    elections: usize,
    /// Highest commit index reached on some path.
    committed: u64,
    /// States in which some replica held the lease.
    leased: usize,
    /// Transitions cut off at a stale leader's win (invariant 5).
    stale_leaders: usize,
}

/// Depth-first search from the initial state. A state is expanded again
/// only when reached by a shorter path than before, so every state
/// within `max_depth` actions of the start is expanded with its full
/// remaining depth. Returns the coverage, or the first violation with
/// the action path that reaches it; a stale leader's win is a violation
/// only if `strict`.
fn explore(bounds: Bounds, strict: bool) -> Result<Coverage, String> {
    struct Search {
        seen: HashMap<(u64, u64), u8>,
        path: Vec<Action>,
        cover: Coverage,
        strict: bool,
    }
    fn visit(state: &State, depth: u8, s: &mut Search) -> Result<(), String> {
        let digest = state.digest();
        match s.seen.get_mut(&digest) {
            Some(best) if *best <= depth => return Ok(()),
            Some(best) => *best = depth,
            None => {
                s.seen.insert(digest, depth);
                s.cover.elections = s.cover.elections.max(state.won.len() - 1);
                let committed = state.ledger.keys().next_back().copied();
                s.cover.committed = s.cover.committed.max(committed.unwrap_or(0));
                let leased = |n: &Rc<Node>| n.core.may_mutate(SimTime(n.clock));
                s.cover.leased += usize::from(state.nodes.iter().any(leased));
            }
        }
        if depth == state.left.max_depth || state.out_of_bounds() {
            return Ok(());
        }
        for action in state.actions() {
            s.path.push(action);
            s.cover.transitions += 1;
            let next = state.apply(action);
            let stale = next.as_ref().ok().and_then(|n| n.stale_leader.clone());
            match (next, stale) {
                (Ok(_), Some(_)) if !s.strict => s.cover.stale_leaders += 1,
                (Ok(next), None) => visit(&next, depth + 1, s)?,
                (Err(why), _) | (Ok(_), Some(why)) => {
                    let (steps, seen) = (s.path.len(), s.seen.len());
                    let path = &s.path;
                    return Err(format!(
                        "{why}\n  after {steps} actions: {path:?}\n  ({seen} states visited)"
                    ));
                }
            }
            s.path.pop();
        }
        Ok(())
    }
    let mut search = Search {
        seen: HashMap::new(),
        path: Vec::new(),
        cover: Coverage::default(),
        strict,
    };
    visit(&State::initial(bounds), 0, &mut search)?;
    search.cover.states = search.seen.len();
    Ok(search.cover)
}

/// Tier 1, with a log: seconds in a debug build.
const TIER1: Bounds = Bounds {
    max_term: 3,
    max_log: 1,
    max_depth: 6,
    crashes: 1,
    pauses: 1,
    beats: 2,
};

/// The CI bound with a log (release build, `-- --ignored`): one action
/// short of the open findings.
const DEEP: Bounds = Bounds {
    max_depth: 8,
    ..TIER1
};

/// The same search with nothing to replicate: elections, fencing and
/// the lease only.
const fn elections_only(bounds: Bounds, max_depth: u8) -> Bounds {
    Bounds {
        max_log: 0,
        max_depth,
        ..bounds
    }
}

fn run(bounds: Bounds) {
    let started = std::time::Instant::now();
    let cover = explore(bounds, false).unwrap_or_else(|why| panic!("invariant violated: {why}"));
    let (depth, log, wall) = (bounds.max_depth, bounds.max_log, started.elapsed());
    println!("replica_explore: depth {depth}, log {log} -> {cover:?} in {wall:.1?}");
    // The search must actually reach the behaviour it claims to check.
    assert!(cover.elections >= 2, "too few elections won: {cover:?}");
    assert!(
        cover.committed >= log as u64,
        "nothing committed: {cover:?}"
    );
    assert!(cover.leased >= 1, "no lease was ever held: {cover:?}");
}

#[test]
fn invariants_hold_in_every_interleaving_tier1() {
    run(TIER1);
}

#[test]
fn election_invariants_hold_in_every_interleaving_tier1() {
    run(elections_only(TIER1, 7));
}

#[test]
#[ignore = "CI bound: run with --release -- --ignored"]
fn invariants_hold_in_every_interleaving_deep() {
    run(DEEP);
}

#[test]
#[ignore = "CI bound: run with --release -- --ignored"]
fn election_invariants_hold_in_every_interleaving_deep() {
    run(elections_only(DEEP, 11));
}

/// A scripted path: actions named by content, not by net position.
struct Script(State);

impl Script {
    fn new() -> Script {
        Script(State::initial(DEEP))
    }

    fn act(&mut self, action: Action) -> Result<(), String> {
        self.0 = self.0.apply(action)?;
        Ok(())
    }

    /// Delivers to replica `to` the frame `pick` selects.
    fn deliver(&mut self, to: usize, pick: impl Fn(&ControlMessage) -> bool) -> Result<(), String> {
        let hit = |(dst, _, msg): &Frame| *dst == to && pick(msg);
        let ix = self
            .0
            .net
            .iter()
            .position(hit)
            .expect("frame is on the net");
        self.act(Action::Deliver(ix))
    }
}

fn is_append(index: u64, term: u64) -> impl Fn(&ControlMessage) -> bool {
    move |m| matches!(m, ControlMessage::ReplAppend { index: i, term: t, .. } if (*i, *t) == (index, term))
}

fn is_ack(from: usize) -> impl Fn(&ControlMessage) -> bool {
    move |m| matches!(m, ControlMessage::ReplAck { index: 1, replica, .. } if *replica == mac(from))
}

fn is_query(m: &ControlMessage) -> bool {
    matches!(m, ControlMessage::LeaderQuery { .. })
}

fn is_vote(m: &ControlMessage) -> bool {
    matches!(m, ControlMessage::LeaderQueryReply { granted: true, .. })
}

/// The explorer's first finding, pinned until the protocol is fixed
/// (ROADMAP item 3): votes are fenced by the voter's *known commit
/// index*, not by its log, so a voter that stored and acknowledged an
/// entry but has not yet heard that it committed will elect a candidate
/// that lacks it — here in five actions, two committed entries on one
/// index in nine. A real fix compares log tails, and so needs the
/// candidate's last entry term on the wire.
///
/// When this test fails the hole is closed: delete it, make the search
/// strict, and raise [`DEEP`].
#[test]
fn open_finding_a_stale_candidate_can_win() {
    let found = explore(TIER1, true).expect_err("leader completeness holds now");
    assert!(found.contains("without majority-held entry"), "{found}");

    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap();
    s.deliver(1, is_append(1, 1)).unwrap(); // Follower 1 stores X and acks.
    s.act(Action::Fire(2, Timer::Takeover)).unwrap(); // 2 never saw X.
    s.deliver(1, is_query).unwrap(); // 1 knows nothing committed: granted.
    s.deliver(2, is_vote).unwrap();
    assert!(
        s.0.stale_leader.is_some(),
        "2 leads without majority-held X"
    );
    s.deliver(0, is_ack(1)).unwrap(); // The old leader commits X.
    s.act(Action::Propose(2)).unwrap(); // Y, on the same index.
    s.deliver(0, is_append(1, 2)).unwrap(); // 0 keeps X — and acks Y.
    let why = s.deliver(2, is_ack(0)).expect_err("Y committed over X");
    assert!(why.contains("was committed there first"), "{why}");
}

/// The second finding, the sibling of PR 8's `truncate_uncommitted`
/// fix: the stale suffix is shed on first contact from a *higher-term*
/// leader, but a replica that already adopted that term by voting never
/// sees a higher term, keeps the suffix, and lets the new leader's
/// commit index freeze it. Nine actions; with two entries the same
/// path breaks term monotonicity in eight. The consistency check that
/// closes it (does my entry before this one match the leader's?) also
/// needs a wire field.
#[test]
fn open_finding_a_voter_keeps_its_stale_suffix() {
    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap(); // X, on the leader only.
    s.act(Action::Fire(1, Timer::Takeover)).unwrap();
    s.deliver(0, is_query).unwrap(); // The leader grants, steps down, keeps X.
    s.deliver(1, is_vote).unwrap();
    assert!(
        s.0.stale_leader.is_none(),
        "X was on no majority: a fair win"
    );
    s.act(Action::Propose(1)).unwrap(); // Y, on the same index.
    s.deliver(2, is_append(1, 2)).unwrap();
    s.deliver(1, is_ack(2)).unwrap(); // Y commits.
    s.act(Action::Fire(1, Timer::Heartbeat)).unwrap(); // commit = 1 rides it.
    let why = s
        .deliver(0, is_append(0, 2))
        .expect_err("X frozen as committed");
    assert!(why.contains("was committed there first"), "{why}");
}
