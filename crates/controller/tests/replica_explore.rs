//! Bounded-exhaustive exploration of the consensus core.
//!
//! Three [`Replica`]s and the set of frames sent so far, stepped through
//! *every* interleaving of: deliver any frame; fire any armed timer;
//! propose a change on a leader; crash-restart or pause any replica — a
//! depth-first search with one fingerprint per state, bounded by term,
//! log length, fault budgets and depth, whose violations print as the
//! shortest [`Script`] that replays them. No `World`, no clock, no RNG:
//! the core's `on_*(now, …, out)` calling convention is the whole
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
//! 3. **No mutation without a lease** — `may_mutate` implies the
//!    replica leads and has heard a quorum since its last pause.
//! 4. **Committed-prefix agreement** and 5. **leader completeness**, as
//!    [`spec`] states them from the Raft and Paxos papers rather than
//!    from the core: at most one value chosen and learned per log
//!    index, only chosen values learned, and every leader holds what
//!    was chosen before its term.
//! 6. **One writer** — the deltas a replica applies are the chosen
//!    entries, in index order: a state machine fed only by the log.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use dumbnet_controller::replication::{Effect, Replica, ReplicaRole, Timer};
use dumbnet_packet::control::{LogEntry, TopoDelta};
use dumbnet_packet::ControlMessage;
use dumbnet_types::fasthash::FxHasher64;
use dumbnet_types::{mix64, FastHashMap, MacAddr, SimDuration, SimTime, SwitchId};

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
#[derive(Clone)]
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
    /// Every delta the core has applied ([`Effect::Apply`]), in order:
    /// the replica's state machine, held to what was chosen.
    applied: Vec<TopoDelta>,
}

impl Hash for Node {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (
            &self.core,
            self.armed,
            self.clock,
            self.heard,
            &self.applied,
        )
            .hash(h);
    }
}

/// A frame on the net: destination, content key ([`intern`]; canonical
/// order and state hashing) and the message.
type Frame = (usize, u64, Rc<ControlMessage>);

/// Every distinct message sent since the search began, by [`label`],
/// with its content key: the order it was first sent in.
type Sent = FastHashMap<(&'static str, u64, u64), Vec<(u64, Rc<ControlMessage>)>>;

thread_local! {
    static SENT: RefCell<Sent> = RefCell::default();
}

/// `msg`'s content key and shared body. A message sent before gets the
/// key and the allocation it got then, so a send formats no text and
/// allocates nothing, and two keys are equal only for equal messages.
fn intern(msg: ControlMessage) -> (u64, Rc<ControlMessage>) {
    SENT.with_borrow_mut(|sent| {
        let mut same = sent.get(&label(&msg)).into_iter().flatten();
        if let Some(known) = same.find(|(_, m)| **m == msg) {
            return known.clone();
        }
        let key = sent.values().map(Vec::len).sum::<usize>() as u64;
        let first = (key, Rc::new(msg));
        sent.entry(label(&first.1)).or_default().push(first.clone());
        first
    })
}

/// A frame's name in a script: its variant, its term, and the index it
/// speaks of — an append's entry (0: a heartbeat), an ack's match, a
/// sync request's `after`, a query's last index, 1 for a granted vote.
fn label(msg: &ControlMessage) -> (&'static str, u64, u64) {
    use ControlMessage as M;
    match msg {
        M::ReplAppend { term, entry, .. } => {
            ("ReplAppend", *term, entry.as_ref().map_or(0, |e| e.index))
        }
        M::ReplAck { term, index, .. } => ("ReplAck", *term, *index),
        M::ReplSyncRequest { term, after, .. } => ("ReplSyncRequest", *term, *after),
        M::LeaderQuery {
            term, last_index, ..
        } => ("LeaderQuery", *term, *last_index),
        M::LeaderQueryReply { term, granted, .. } => ("LeaderQueryReply", *term, (*granted).into()),
        other => unreachable!("the core sends replication frames only, not {other:?}"),
    }
}

#[derive(Clone)]
struct State {
    nodes: [Rc<Node>; N],
    /// Every distinct frame sent so far, sorted.
    net: Vec<Frame>,
    /// Who won each term (the bootstrap leader holds term 1).
    won: BTreeMap<u64, usize>,
    /// What [`spec`] has seen chosen and learned so far.
    history: History,
    left: Bounds,
}

/// The history [`spec`] keeps, per log index (a Paxos instance).
#[derive(Clone, Default, Hash)]
struct History {
    /// The entry chosen there, and the term (round) it was chosen in.
    chosen: BTreeMap<u64, (u64, LogEntry)>,
    /// The entry first learned there.
    learned: BTreeMap<u64, LogEntry>,
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
                applied: Vec::new(),
            })
        };
        let mut state = State {
            nodes: std::array::from_fn(node),
            net: Vec::new(),
            won: BTreeMap::from([(1, 0)]),
            history: History::default(),
            left: bounds,
        };
        for i in 0..N {
            state.step(i, Replica::on_start).expect("boot is safe");
        }
        state
    }

    /// One 64-bit fingerprint of everything that decides the future
    /// (the path so far does not), as TLC keys its visited set.
    fn fingerprint(&self) -> u64 {
        let mut h = FxHasher64::default();
        self.nodes.hash(&mut h);
        for (to, key, _) in &self.net {
            (to, key).hash(&mut h);
        }
        (&self.won, &self.history).hash(&mut h);
        (self.left.crashes, self.left.pauses, self.left.beats).hash(&mut h);
        mix64(h.finish())
    }

    /// Steps replica `i` with one input and applies the effects the way
    /// `Controller::step` does, onto the net instead of a `Ctx`.
    fn step(
        &mut self,
        i: usize,
        input: impl FnOnce(&mut Replica, SimTime, &mut Vec<Effect>),
    ) -> Result<(), String> {
        let node = Rc::make_mut(&mut self.nodes[i]);
        let mut out = Vec::new();
        input(&mut node.core, SimTime(node.clock), &mut out);
        let net = &mut self.net;
        let mut send = |to: MacAddr, msg: ControlMessage| {
            let (key, msg) = intern(msg);
            net.push((index_of(to), key, msg));
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
                }
                Effect::Apply { delta, .. } => node.applied.push(delta),
                Effect::SteppedDown | Effect::Dropped => {}
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

    /// Invariants 1–3 of the module docs, then 4 and 5 ([`spec`]), then 6.
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
            if !log.entries().map(|e| e.term).is_sorted() {
                let terms: Vec<u64> = log.entries().map(|e| e.term).collect();
                return Err(format!("replica {i}: entry terms fall: {terms:?}"));
            }
            // 3. The lease.
            if node.core.may_mutate(SimTime(node.clock)) {
                let heard = node.heard.iter().filter(|&&at| at == Some(node.clock));
                if !node.core.is_leader() || 1 + heard.count() < log.quorum() {
                    return Err(format!(
                        "replica {i}: may_mutate without a quorum heard since its last pause"
                    ));
                }
            }
        }
        spec(&self.nodes.each_ref().map(|n| &n.core), &mut self.history)?;
        // 6. The k-th delta a replica applies is the one chosen at
        // index k.
        for (i, node) in self.nodes.iter().enumerate() {
            for (index, delta) in (1..).zip(&node.applied) {
                let chosen = self.history.chosen.get(&index);
                if chosen.is_none_or(|(_, e)| e.delta != *delta) {
                    return Err(format!(
                        "replica {i} applied {delta:?} as entry {index}, \
                         which is not the entry chosen there"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The safety properties, written from the papers: Raft (Ongaro and
/// Ousterhout, 2014, Figure 3 and §5.3–5.4) and the Paxos roles of
/// "Paxos Made Switch-y" (Dang et al., 2015). A log index is a Paxos
/// instance and a term a round. A replica *accepts* an entry in a round
/// when it holds it while in that term; an entry of term `t` is
/// *chosen* once a majority accepts it in round `t` (Raft: its leader
/// has replicated it on a majority), and with it every entry before it.
/// A replica *learns* every entry up to its commit index.
///
/// - At most one value is chosen per instance.
/// - Leader completeness: a leader of term `T` holds every entry chosen
///   in a round before `T`.
/// - Learners learn only chosen values, so at most one value is learned
///   per instance: state machine safety.
fn spec(replicas: &[&Replica], seen: &mut History) -> Result<(), String> {
    let quorum = replicas.len() / 2 + 1;
    let accepted =
        |r: &&Replica, e: &LogEntry| r.log().term() == e.term && r.log().entry(e.index) == Some(e);
    for r in replicas {
        for e in r.log().entries() {
            if replicas.iter().filter(|q| accepted(q, e)).count() < quorum {
                continue;
            }
            for prefix in r.log().entries().take_while(|p| p.index <= e.index) {
                let (round, chosen) = seen
                    .chosen
                    .entry(prefix.index)
                    .or_insert_with(|| (e.term, prefix.clone()));
                if chosen != prefix {
                    return Err(format!(
                        "two values chosen at index {}: {chosen:?} in round {round}, \
                         then {prefix:?} in round {}",
                        prefix.index, e.term
                    ));
                }
            }
        }
    }
    for (i, r) in replicas.iter().enumerate() {
        let log = r.log();
        if r.is_leader() {
            let lost = seen
                .chosen
                .values()
                .find(|(round, e)| *round < log.term() && log.entry(e.index) != Some(e));
            if let Some((round, e)) = lost {
                return Err(format!(
                    "replica {i} leads term {} without {e:?}, chosen in round {round}",
                    log.term()
                ));
            }
        }
        for index in 1..=log.committed() {
            let Some(e) = log.entry(index) else {
                return Err(format!(
                    "replica {i} learned index {index} and does not hold it"
                ));
            };
            if seen
                .chosen
                .get(&index)
                .is_none_or(|(_, chosen)| chosen != e)
            {
                return Err(format!("replica {i} learned {e:?}, which was not chosen"));
            }
            let first = seen.learned.entry(index).or_insert_with(|| e.clone());
            if first != e {
                return Err(format!(
                    "replica {i} learned {e:?} at index {index}, \
                     where {first:?} was learned first"
                ));
            }
        }
    }
    Ok(())
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
}

/// Depth-first search from the initial state. A state is expanded again
/// only when reached by a shorter path than before, so every state
/// within `max_depth` actions of the start is expanded with its full
/// remaining depth. Returns the coverage, or a broken invariant with the
/// [`script`] that reaches it, its length and the states visited before
/// the first violation. After a violation of `L` actions it searches
/// again at depth `L − 1`, so the script returned is a shortest one.
fn explore(bounds: Bounds) -> Result<Coverage, (String, usize, usize)> {
    struct Search {
        seen: FastHashMap<u64, u8>,
        path: Vec<Action>,
        cover: Coverage,
    }
    fn visit(state: &State, depth: u8, s: &mut Search) -> Result<(), String> {
        let best = s.seen.entry(state.fingerprint()).or_insert(u8::MAX);
        if *best <= depth {
            return Ok(());
        }
        if *best == u8::MAX {
            s.cover.elections = s.cover.elections.max(state.won.len() - 1);
            let committed = state.history.learned.keys().next_back().copied();
            s.cover.committed = s.cover.committed.max(committed.unwrap_or(0));
            let leased = |n: &Rc<Node>| n.core.may_mutate(SimTime(n.clock));
            s.cover.leased += usize::from(state.nodes.iter().any(leased));
        }
        *best = depth;
        if depth == state.left.max_depth || state.out_of_bounds() {
            return Ok(());
        }
        for action in state.actions() {
            s.path.push(action);
            s.cover.transitions += 1;
            visit(&state.apply(action)?, depth + 1, s)?;
            s.path.pop();
        }
        Ok(())
    }
    SENT.with_borrow_mut(Sent::clear);
    let mut s = Search {
        seen: FastHashMap::default(),
        path: Vec::new(),
        cover: Coverage::default(),
    };
    let result = visit(&State::initial(bounds), 0, &mut s);
    // The visited set is freed before any narrowing search starts.
    s.cover.states = std::mem::take(&mut s.seen).len();
    let (Err(why), states) = (result, s.cover.states) else {
        return Ok(s.cover);
    };
    // Named now: the next search numbers the messages afresh.
    let why = format!("{why}\n{}", script(bounds, &s.path));
    let mut shallower = bounds;
    shallower.max_depth = s.path.len() as u8 - 1;
    match explore(shallower) {
        Ok(_) => Err((why, s.path.len(), states)),
        Err((shorter, steps, _)) => Err((shorter, steps, states)),
    }
}

/// `path` as the [`Script`] that replays it, one action a line. A frame
/// is named by its [`label`], or by its whole text where another frame
/// to the same replica has that label too.
fn script(bounds: Bounds, path: &[Action]) -> String {
    let (mut state, mut script) = (State::initial(bounds), String::new());
    for &action in path {
        let line = match action {
            Action::Deliver(ix) => {
                let (to, _, msg) = &state.net[ix];
                let (variant, term, index) = label(msg);
                let named = |(t, _, m): &Frame| t == to && label(m) == (variant, term, index);
                if state.net.iter().filter(|f| named(f)).count() == 1 {
                    format!("s.deliver({to}, is({variant:?}, {term}, {index}))")
                } else {
                    let text = format!("{msg:?}");
                    format!("s.deliver({to}, |m| format!(\"{{m:?}}\") == {text:?})")
                }
            }
            Action::Fire(i, timer) => format!("s.act(Action::Fire({i}, Timer::{timer:?}))"),
            other => format!("s.act(Action::{other:?})"),
        };
        writeln!(script, "    {line}.unwrap();").expect("writing to a String");
        state = state.apply(action).unwrap_or(state);
    }
    script
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

/// The CI bound with a log (release build, `-- --ignored`): two
/// entries, ten actions, so every state of the one-entry, nine-action
/// bound and more. Both findings of the fence-based core were nine
/// actions long; a follower that checks only that `prev_index` exists,
/// not its term, and a `store` that overwrites a conflicting entry but
/// keeps the suffix after it are caught here but not at tier 1.
const DEEP: Bounds = Bounds {
    max_log: 2,
    max_depth: 10,
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
    let cover = explore(bounds).unwrap_or_else(|(why, steps, states)| {
        panic!(
            "invariant violated: {why}  {steps} actions, the fewest that break it \
             (the first violation came after {states} states)"
        )
    });
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
        match self.0.net.iter().position(hit) {
            Some(ix) => self.act(Action::Deliver(ix)),
            None => Err(format!("no such frame for replica {to} on the net")),
        }
    }
}

/// Picks a frame by its [`label`].
fn is(variant: &'static str, term: u64, index: u64) -> impl Fn(&ControlMessage) -> bool {
    move |m| label(m) == (variant, term, index)
}

/// The explorer's first finding against the fence-based core: a voter
/// that stored and acknowledged an entry, but had not yet heard that it
/// committed, elected a candidate that lacked it (five actions), and
/// two entries committed on one index (nine). The election restriction
/// refuses the vote.
#[test]
fn regression_a_stale_candidate_can_win() {
    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap();
    s.deliver(1, is("ReplAppend", 1, 1)).unwrap(); // Follower 1 stores X and acks.
    s.act(Action::Fire(2, Timer::Takeover)).unwrap(); // 2 never saw X.
    s.deliver(1, is("LeaderQuery", 2, 0)).unwrap(); // 1's log is ahead of 2's.
    let why = s
        .deliver(2, is("LeaderQueryReply", 2, 1))
        .expect_err("1 voted for a log behind its own");
    assert!(why.contains("no such frame"), "{why}");
}

/// The second finding: the stale suffix was shed only on first contact
/// from a *higher*-term leader, so a leader holding uncommitted X that
/// voted for the candidate kept X, and the new leader's commit index
/// froze it (nine actions). The election restriction now refuses that
/// vote too; the consistency check would shed X if it were cast.
#[test]
fn regression_a_voter_keeps_its_stale_suffix() {
    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap(); // X, on the leader only.
    s.act(Action::Fire(1, Timer::Takeover)).unwrap();
    s.deliver(0, is("LeaderQuery", 2, 0)).unwrap(); // 0 steps down, keeps X, refuses.
    let why = s
        .deliver(1, is("LeaderQueryReply", 2, 1))
        .expect_err("0 voted for a log behind its own");
    assert!(why.contains("no such frame"), "{why}");
}

/// Raft's Figure 8 on three replicas. X (term 1) stays on replica 0;
/// 2 wins term 2 and proposes Y on the same index; 0 wins term 3 and
/// copies X to 1, so X sits on a majority — but in an old term, so 0
/// must not count it. 2 then wins term 4 with 1's vote (Y's term beats
/// X's), overwrites X on 1, and commits Y with an entry of its own.
#[test]
fn regression_figure_8_commits_no_old_term_entry() {
    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap(); // X.
    s.act(Action::Fire(2, Timer::Takeover)).unwrap();
    s.deliver(1, is("LeaderQuery", 2, 0)).unwrap();
    s.deliver(2, is("LeaderQueryReply", 2, 1)).unwrap(); // 2 leads term 2.
    s.act(Action::Propose(2)).unwrap(); // Y.
    s.deliver(0, is("LeaderQuery", 2, 0)).unwrap(); // 0 steps down, keeps X.
    s.act(Action::Fire(0, Timer::Takeover)).unwrap();
    s.deliver(1, is("LeaderQuery", 3, 1)).unwrap();
    s.deliver(0, is("LeaderQueryReply", 3, 1)).unwrap(); // 0 leads term 3.
    s.act(Action::Fire(0, Timer::Heartbeat)).unwrap(); // Resends X.
    s.deliver(1, is("ReplAppend", 3, 1)).unwrap();
    s.deliver(0, is("ReplAck", 3, 1)).unwrap(); // X on a majority.
    assert_eq!(s.0.nodes[0].core.log().committed(), 0, "X is of term 1");
    s.deliver(2, is("LeaderQuery", 3, 1)).unwrap(); // 2 steps down.
    s.act(Action::Fire(2, Timer::Takeover)).unwrap();
    s.deliver(1, is("LeaderQuery", 4, 1)).unwrap();
    s.deliver(2, is("LeaderQueryReply", 4, 1)).unwrap(); // 2 leads term 4.
    s.act(Action::Propose(2)).unwrap(); // Z, after Y.
    s.act(Action::Fire(2, Timer::Heartbeat)).unwrap(); // Resends Y, Z.
    s.deliver(1, is("ReplAppend", 4, 1)).unwrap(); // 1 cuts X for Y.
    s.deliver(1, is("ReplAppend", 4, 2)).unwrap();
    s.deliver(2, is("ReplAck", 4, 2)).unwrap();
    let learned: Vec<u64> = s.0.history.learned.values().map(|e| e.term).collect();
    assert_eq!(learned, [2, 4], "Y and Z commit; X never did");
}

/// The open finding the commit rule closed: the core applied a delta
/// before it was chosen — the leader on `propose`, a follower on
/// `store` — so a deposed leader whose entry was cut kept its delta
/// applied. Invariant 6 failed that core on its first action,
/// `Propose(0)`. Now X is never applied, and both sides apply Y, the
/// entry chosen at X's index, once they learn it committed.
#[test]
fn regression_a_deposed_leader_applies_no_unchosen_delta() {
    let mut s = Script::new();
    s.act(Action::Propose(0)).unwrap(); // X, on 0 only.
    s.act(Action::Fire(1, Timer::Takeover)).unwrap();
    s.deliver(2, is("LeaderQuery", 2, 0)).unwrap();
    s.deliver(1, is("LeaderQueryReply", 2, 1)).unwrap(); // 1 leads term 2.
    s.act(Action::Propose(1)).unwrap(); // Y, at X's index.
    s.deliver(0, is("ReplAppend", 2, 1)).unwrap(); // 0 cuts X for Y.
    s.deliver(1, is("ReplAck", 2, 1)).unwrap(); // Y commits; 1 applies it.
    s.act(Action::Fire(1, Timer::Heartbeat)).unwrap();
    s.deliver(0, is("ReplAppend", 2, 0)).unwrap(); // 0 learns the commit.
    let down = |a, b| TopoDelta {
        down: vec![(SwitchId(a), SwitchId(b))],
        ..TopoDelta::default()
    };
    let (x, y) = (down(0, 100), down(1, 200));
    assert!(
        s.0.nodes[0].core.log().entries().all(|e| e.delta != x),
        "X is cut"
    );
    let applied = s.0.nodes.each_ref().map(|n| n.applied.clone());
    assert_eq!(applied, [vec![y.clone()], vec![y], vec![]]);
}
