//! Controller state replication — the ZooKeeper substitute.
//!
//! §4.1/§4.2: "We have multiple controllers in the network for fault
//! tolerance … We keep the replicas consistent using Apache ZooKeeper to
//! store the topology changes." The property actually used is narrow: a
//! totally ordered log of topology deltas, acknowledged by a majority,
//! with a standby able to take over. This module implements exactly
//! that as pure logic: [`ReplicatedLog`], the leader-sequenced log with
//! majority commit, and around it [`Replica`], the consensus core —
//! how a replica reacts to a replication or election message, a timer,
//! a crash-restart or a local proposal (heartbeat failover, quorum
//! elections and the leader lease all live here).
//!
//! The core reads no clock, draws no RNG and knows no simulator or
//! topology type: every entry point takes `now` and appends [`Effect`]s
//! to a caller-owned buffer, like [`crate::DiscoveryState`]. The
//! [`Controller`](crate::node::Controller) node is its adapter
//! (DESIGN.md §6.5), and `tests/replica_explore.rs` steps three
//! replicas through every interleaving without a `World`.
//!
//! Leadership is **fenced by terms** (the ZooKeeper epoch / Raft term
//! analog): every promotion bumps a monotonically increasing term that
//! is stamped into each appended entry and into every replication
//! message on the wire. Replicas reject lower-term messages, and any
//! node that observes a higher term — including a crashed-and-restarted
//! ex-leader — steps down to [`ReplicaRole::Follower`] and re-syncs.
//!
//! The log obeys Raft's three rules (DESIGN.md §6.1): a voter elects
//! only a candidate whose last entry is at least as up to date as its
//! own; a follower stores an entry only after the entry before it,
//! with its term, and cuts its log where a term conflicts; a leader
//! commits by counting replicas on an entry of its own term. Every
//! replica, the leader too, applies only committed entries, in order.

use std::collections::{BTreeMap, BTreeSet};

use dumbnet_packet::control::{LogEntry, TopoDelta};
use dumbnet_packet::ControlMessage;
use dumbnet_types::{heap, norm_edge, MacAddr, SimDuration, SimTime, SwitchId};

/// Role of this replica in the controller group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaRole {
    /// Sequences entries and serves clients.
    Leader,
    /// Applies replicated entries; candidate for takeover.
    Follower,
}

/// The replicated topology log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplicatedLog {
    role: ReplicaRole,
    /// All controller members (self included).
    members: Vec<MacAddr>,
    me: MacAddr,
    /// Entry `i` at position `i - 1`: the consistency check keeps the
    /// log free of holes.
    entries: Vec<LogEntry>,
    /// Leader side, one slot per member: the highest index known to
    /// match our log (our own slot: our last index).
    matched: Vec<u64>,
    committed: u64,
    /// Current leadership term (fencing token). Every member starts at
    /// 1 — the configured bootstrap leader's term — so the first
    /// campaign a follower can mount targets term 2 and can never
    /// collide with the term the bootstrap leader already holds.
    term: u64,
    /// Highest term this replica granted a leadership vote in. Votes
    /// are exclusive per term — the property that makes "at most one
    /// leader per term" a theorem instead of a hope.
    voted_in: u64,
}

impl ReplicatedLog {
    /// Creates a log for member `me` of `members` (must contain `me`).
    #[must_use]
    pub fn new(me: MacAddr, members: Vec<MacAddr>, role: ReplicaRole) -> ReplicatedLog {
        ReplicatedLog {
            role,
            matched: vec![0; members.len()],
            members,
            me,
            entries: Vec::new(),
            committed: 0,
            term: 1,
            voted_in: 1,
        }
    }

    /// This replica's role.
    #[must_use]
    pub fn role(&self) -> ReplicaRole {
        self.role
    }

    /// Current leadership term.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest term this replica has voted in (campaign bookkeeping:
    /// a losing candidate's next attempt must exceed both its current
    /// term and every vote it has already cast).
    #[must_use]
    pub fn voted_in(&self) -> u64 {
        self.voted_in
    }

    /// Promotes this replica to leader of `term` (an election win).
    /// Nothing is known to match on any peer yet; the stored prefix
    /// commits once an entry of `term` reaches a majority.
    pub fn promote_to(&mut self, term: u64) {
        debug_assert!(term > self.term, "promotion must advance the term");
        self.role = ReplicaRole::Leader;
        self.term = self.term.max(term);
        self.matched.fill(0);
        self.match_self();
    }

    /// Records a term observed on the wire. Adopting a higher term
    /// forces a leader to step down; returns `true` in that case so the
    /// node can re-arm its takeover machinery.
    pub fn observe_term(&mut self, term: u64) -> bool {
        if term <= self.term {
            return false;
        }
        self.term = term;
        if self.role == ReplicaRole::Leader {
            self.role = ReplicaRole::Follower;
            return true;
        }
        false
    }

    /// Whether a campaign for `term` by a candidate whose log ends at
    /// `candidate_last` (term, index) gets this replica's vote. Granting
    /// records the vote, so at most one candidate wins any term; a
    /// candidate whose last entry is behind ours is refused, so a
    /// majority that stores an entry elects only leaders holding it.
    pub fn grant_vote(&mut self, term: u64, candidate_last: (u64, u64)) -> bool {
        if term <= self.term || term <= self.voted_in || candidate_last < self.last() {
            return false;
        }
        self.voted_in = term;
        true
    }

    /// Term and index of the last entry (`(0, 0)` for an empty log).
    #[must_use]
    fn last(&self) -> (u64, u64) {
        self.entries.last().map_or((0, 0), |e| (e.term, e.index))
    }

    /// Term of the entry at `index` (0 at index 0: the empty prefix
    /// every log holds).
    #[must_use]
    fn term_at(&self, index: u64) -> Option<u64> {
        match index {
            0 => Some(0),
            _ => self.entry(index).map(|e| e.term),
        }
    }

    /// Majority size for the member count.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Votes needed to win an election. A strict member majority —
    /// except the two-member group, where the surviving follower could
    /// never reach 2 with its leader dead; there the deployment trades
    /// split-brain safety for availability (documented in DESIGN.md §6)
    /// and a lone follower may promote itself. Because both sides of a
    /// partitioned two-member group can therefore self-elect the same
    /// term, the chaos leadership invariants exclude two-member groups
    /// (see `dumbnet_core::chaos::check_invariants`).
    #[must_use]
    pub fn election_quorum(&self) -> usize {
        if self.members.len() == 2 {
            1
        } else {
            self.quorum()
        }
    }

    /// Highest committed index.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Number of entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All group members, self included.
    #[must_use]
    pub fn members(&self) -> &[MacAddr] {
        &self.members
    }

    /// The other members (targets for `ReplAppend`).
    pub fn peers(&self) -> impl Iterator<Item = MacAddr> + '_ {
        let me = self.me;
        self.members.iter().copied().filter(move |&m| m != me)
    }

    /// Leader: sequences a new entry. Returns it (the node sends it to
    /// every peer). Single-member groups commit immediately.
    pub fn append(&mut self, version: u64, delta: TopoDelta) -> LogEntry {
        debug_assert_eq!(self.role, ReplicaRole::Leader);
        let entry = LogEntry {
            index: self.entries.len() as u64 + 1,
            version,
            term: self.term,
            delta,
        };
        self.entries.push(entry.clone());
        self.match_self();
        entry
    }

    /// Follower: stores `entry`, whose predecessor the caller found in
    /// this log with the leader's term. An entry already held with the
    /// same term is the same entry; one held with another term is a
    /// deposed leader's, and the log is cut from there.
    pub fn store(&mut self, entry: LogEntry) {
        let at = entry.index as usize - 1;
        debug_assert!(at <= self.entries.len(), "predecessor not held");
        if self.entries.get(at).is_none_or(|e| e.term != entry.term) {
            self.entries.truncate(at);
            self.entries.push(entry);
        }
    }

    /// Follower: adopts `index` as committed — the caller passes the
    /// leader's commit index capped at the last index this log is known
    /// to share with the leader. Never regresses.
    pub fn note_commit(&mut self, index: u64) {
        self.committed = self.committed.max(index);
    }

    /// Leader: records that `from`'s log matches ours up to `index`;
    /// the commit index may advance.
    pub fn ack(&mut self, index: u64, from: MacAddr) {
        if let Some(slot) = self.members.iter().position(|&m| m == from) {
            self.matched[slot] = self.matched[slot].max(index);
            self.advance_commit();
        }
    }

    /// Leader: the highest index `peer`'s log is known to share with
    /// ours; everything after it is resent on the next heartbeat.
    #[must_use]
    fn matched(&self, peer: MacAddr) -> u64 {
        let slot = self.members.iter().position(|&m| m == peer);
        slot.map_or(0, |slot| self.matched[slot])
    }

    /// Entries in `(after, to]` for catch-up.
    pub fn entries_after(&self, after: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().skip(after as usize)
    }

    /// The entry at `index`, if stored.
    #[must_use]
    pub fn entry(&self, index: u64) -> Option<&LogEntry> {
        index
            .checked_sub(1)
            .and_then(|i| self.entries.get(i as usize))
    }

    /// All stored entries in index order (invariant audits: term
    /// monotonicity, cross-replica convergence).
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Leader: our own slot follows our last entry, and the commit
    /// index may move with it.
    fn match_self(&mut self) {
        self.ack(self.entries.len() as u64, self.me);
    }

    /// Leader: commits the highest index a majority matches, if its
    /// entry is of the current term; earlier entries commit with it.
    /// An older-term entry on a majority may still be overwritten by a
    /// later leader (Raft's Figure 8), so it is never counted alone.
    fn advance_commit(&mut self) {
        for slot in 0..self.matched.len() {
            let n = self.matched[slot];
            let reached = self.matched.iter().filter(|&&m| m >= n).count();
            let ours = self.term_at(n) == Some(self.term);
            if ours && n > self.committed && reached >= self.quorum() {
                self.committed = n;
            }
        }
    }
}

/// A timer the core asks its adapter to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    /// Leader: next heartbeat round.
    Heartbeat,
    /// Follower: patience before campaigning (rank-staggered).
    Takeover,
    /// Candidate: the campaign window closes.
    Election,
}

/// What one step of the [`Replica`] asks of its adapter, which applies
/// effects in emission order: event keys are per-node emission
/// sequences, so the order is part of the contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Route `msg` to member `to` (one route lookup); whether election
    /// traffic without a route floods instead is the adapter's choice.
    Send {
        /// Destination member.
        to: MacAddr,
        /// The frame.
        msg: ControlMessage,
    },
    /// The leader's burst to one peer over a single route lookup (made
    /// even when the burst is empty): a heartbeat with its ack-less
    /// retries, or the answer to a sync request. Each replayed entry
    /// that leaves counts as a resend.
    Replay {
        /// Destination peer.
        to: MacAddr,
        /// The heartbeat leading the burst, if any.
        beat: Option<ControlMessage>,
        /// The replayed entries, oldest first.
        entries: Vec<ControlMessage>,
    },
    /// A leadership campaign for `term` opens: `msg` goes to every peer
    /// (routed per peer, or one flood before any topology is known).
    Campaign {
        /// The proposed term.
        term: u64,
        /// The vote request.
        msg: ControlMessage,
    },
    /// Arm `timer` to fire `after` from now.
    Arm {
        /// Which timer.
        timer: Timer,
        /// Delay from the current step.
        after: SimDuration,
    },
    /// An entry committed: apply its delta to the topology view. Every
    /// replica emits one per entry, in index order.
    Apply {
        /// Topology version after applying.
        version: u64,
        /// The change.
        delta: TopoDelta,
    },
    /// This replica won the election for `term` and now leads.
    Promoted {
        /// The term won.
        term: u64,
    },
    /// A higher term fenced this leader; it is a follower again.
    SteppedDown,
    /// The input was fenced or malformed (stale term, foreign sender,
    /// impossible role) and was not processed.
    Dropped,
}

/// An in-flight leadership campaign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Election {
    /// The proposed term.
    term: u64,
    /// Members whose vote we hold (self included).
    votes: BTreeSet<MacAddr>,
}

/// One controller's consensus state machine: the log plus election,
/// liveness and lease bookkeeping (calling convention: module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Replica {
    log: ReplicatedLog,
    heartbeat: SimDuration,
    takeover_timeout: SimDuration,
    /// The last index handed over as [`Effect::Apply`].
    applied: u64,
    /// Topology version the applied entries have reached.
    version: u64,
    last_leader_seen: SimTime,
    election: Option<Election>,
    /// Campaigns already answered, keyed by `(candidate, term)` —
    /// flooded queries arrive many times and must draw one reply.
    answered_queries: BTreeSet<(MacAddr, u64)>,
    /// Leader lease bookkeeping: when each peer was last heard (acks,
    /// sync requests). See [`Replica::may_mutate`].
    peer_heard: BTreeMap<MacAddr, SimTime>,
}

impl Replica {
    /// Max entries replayed per `ReplSyncRequest` answer.
    const RESYNC_BATCH: usize = 64;
    /// Max unacked entries retransmitted per peer per heartbeat.
    const RESEND_PER_BEAT: usize = 8;

    /// Creates member `me` of `members` (must contain `me`) in `role`.
    #[must_use]
    pub fn new(
        me: MacAddr,
        members: Vec<MacAddr>,
        role: ReplicaRole,
        heartbeat: SimDuration,
        takeover_timeout: SimDuration,
    ) -> Replica {
        Replica {
            log: ReplicatedLog::new(me, members, role),
            heartbeat,
            takeover_timeout,
            applied: 0,
            version: 0,
            last_leader_seen: SimTime::ZERO,
            election: None,
            answered_queries: BTreeSet::new(),
            peer_heard: BTreeMap::new(),
        }
    }

    /// The heap this replica holds: the log (its entries and their
    /// deltas) and the election, query and lease bookkeeping.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let log = &self.log;
        let deltas: usize = log.entries.iter().map(|e| e.delta.heap_bytes()).sum();
        heap::vec(&log.members)
            + heap::vec(&log.entries)
            + deltas
            + heap::vec(&log.matched)
            + self
                .election
                .as_ref()
                .map_or(0, |e| heap::btree_set(&e.votes))
            + heap::btree_set(&self.answered_queries)
            + heap::btree_map(&self.peer_heard)
    }

    /// Read access to the replicated log.
    #[must_use]
    pub fn log(&self) -> &ReplicatedLog {
        &self.log
    }

    /// Whether this replica currently leads.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.log.role == ReplicaRole::Leader
    }

    /// Topology version the applied entries have reached.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A whole topology was installed outside the log (discovery
    /// finished, or a preload): versions count on from `version`.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// The entries this replica stands by: a leader's whole log — what
    /// it has decided — and a follower's committed prefix — its suffix
    /// may be a deposed leader's that the next leader cuts.
    fn decided(&self) -> &[LogEntry] {
        let upto = if self.is_leader() {
            self.log.entries.len()
        } else {
            self.log.committed as usize
        };
        &self.log.entries[..upto]
    }

    /// Edges under quarantine (normalized) in a leader's whole log or a
    /// follower's committed prefix. A hard link transition sheds the
    /// edge's gray state.
    #[must_use]
    pub fn quarantined(&self) -> BTreeSet<(SwitchId, SwitchId)> {
        let mut quarantined = BTreeSet::new();
        for delta in self.decided().iter().map(|e| &e.delta) {
            let hard = delta.hard().map(|(pair, _)| pair);
            for (a, b) in hard.chain(delta.unquarantine.iter().copied()) {
                quarantined.remove(&norm_edge(a, b));
            }
            for &(a, b) in &delta.quarantine {
                quarantined.insert(norm_edge(a, b));
            }
        }
        quarantined
    }

    /// Whether a leader's uncommitted entries, which the applied topology
    /// lags, last bring the link between `edge`'s switches (normalized)
    /// up or down; `None` if none names it, and always on a follower.
    #[must_use]
    pub fn link_pending(&self, edge: (SwitchId, SwitchId)) -> Option<bool> {
        let pending = self.decided().iter().skip(self.applied as usize);
        pending.rev().find_map(|e| {
            let named = e
                .delta
                .hard()
                .filter(|&((a, b), _)| norm_edge(a, b) == edge);
            named.last().map(|(_, up)| up)
        })
    }

    /// The leader lease the gray scoreboard asks before quarantining or
    /// pardoning: do we lead, and — counting ourselves — is a quorum of
    /// replicas in recent contact? A single-member group always is. The
    /// window is generous (several heartbeats): it only has to go stale
    /// *eventually* on a partitioned leader, before its decayed evidence
    /// turns into appends that diverge from the authoritative log.
    #[must_use]
    pub fn may_mutate(&self, now: SimTime) -> bool {
        let lease = self.heartbeat.saturating_mul(4);
        let heard = 1 + self
            .peer_heard
            .iter()
            .filter(|&(peer, &at)| *peer != self.log.me && now - at <= lease)
            .count();
        self.is_leader() && heard >= self.log.quorum()
    }

    /// Arms the periodic machinery at boot.
    pub fn on_start(&mut self, now: SimTime, out: &mut Vec<Effect>) {
        self.last_leader_seen = now;
        if !self.is_leader() {
            self.arm_takeover(out);
        } else if self.log.peers().next().is_some() {
            self.arm(Timer::Heartbeat, self.heartbeat, out);
        }
    }

    /// Back from a crash: every pre-crash timer is dead. A follower may
    /// have won an election while we were down, so an ex-leader rejoins
    /// as a follower (keeping its term — a successor's is strictly
    /// higher) and campaigns only after a silent takeover window proves
    /// nobody leads. Either way we may have missed appends: ask every
    /// peer for the suffix — only the current leader will answer.
    pub fn on_restart(&mut self, now: SimTime, out: &mut Vec<Effect>) {
        self.last_leader_seen = now;
        self.election = None;
        if self.is_leader() {
            if self.log.peers().next().is_none() {
                return; // Solo controller: nobody could have been elected.
            }
            self.log.role = ReplicaRole::Follower;
        }
        self.arm_takeover(out);
        for peer in self.log.peers() {
            self.send(peer, self.sync_request(), out);
        }
    }

    /// A timer armed through [`Effect::Arm`] fired.
    pub fn on_timer(&mut self, now: SimTime, timer: Timer, out: &mut Vec<Effect>) {
        match timer {
            Timer::Heartbeat if self.is_leader() => {
                for peer in self.log.peers() {
                    // Ack-less retry: replay entries this peer is not
                    // known to hold (lost appends or acks), a bounded
                    // batch per beat.
                    let due = self.log.entries_after(self.log.matched(peer));
                    let due = due.take(Replica::RESEND_PER_BEAT);
                    self.replay(peer, Some(self.append_msg(None)), due, out);
                }
                self.arm(Timer::Heartbeat, self.heartbeat, out);
            }
            Timer::Takeover if !self.is_leader() => {
                if self.election.is_some() {
                    return; // A campaign is in flight; its timer re-arms us.
                }
                if now - self.last_leader_seen >= self.takeover_timeout {
                    // The rank stagger on this timer makes the lowest-MAC
                    // live follower campaign (and so promote) first; the
                    // vote quorum makes a second same-term leader
                    // impossible even when the stagger ties.
                    self.begin_election(out);
                } else {
                    self.arm_takeover(out);
                }
            }
            Timer::Election => {
                // The campaign window closed without a quorum (dead
                // peers, a partition, or a lost race). Fall back to the
                // takeover clock and retry at a fresh term later.
                self.election = None;
                if !self.is_leader() {
                    self.arm_takeover(out);
                }
            }
            Timer::Heartbeat | Timer::Takeover => {}
        }
    }

    /// A topology change learned first-hand. The leader sequences it,
    /// at the version after its last entry's, and replicates it; it is
    /// applied once it commits (at once in a lone replica). A follower
    /// does nothing: the change is not its to sequence.
    pub fn propose(&mut self, delta: TopoDelta, out: &mut Vec<Effect>) {
        if !self.is_leader() {
            return;
        }
        let last = self.log.entries.last().map_or(self.version, |e| e.version);
        let entry = self.log.append(last + 1, delta);
        self.apply_committed(out);
        for peer in self.log.peers() {
            self.send(peer, self.append_msg(Some(&entry)), out);
        }
    }

    /// A replication or election message arrived (anything else is
    /// ignored). A sender outside the group is dropped before it can
    /// touch any state.
    pub fn on_message(&mut self, now: SimTime, msg: ControlMessage, out: &mut Vec<Effect>) {
        let me = self.log.me;
        let sender = match &msg {
            ControlMessage::ReplAppend { leader: m, .. }
            | ControlMessage::ReplAck { replica: m, .. }
            | ControlMessage::ReplSyncRequest { replica: m, .. }
            | ControlMessage::LeaderQuery { candidate: m, .. }
            | ControlMessage::LeaderQueryReply { responder: m, .. }
            | ControlMessage::ControllerHello { controller: m, .. } => *m,
            _ => return,
        };
        if !self.log.members.contains(&sender) {
            out.push(Effect::Dropped);
            return;
        }
        match msg {
            ControlMessage::ReplAppend {
                leader,
                term,
                prev_index,
                prev_term,
                commit,
                entry,
            } => {
                if term < self.log.term || entry.as_ref().is_some_and(|e| e.index != prev_index + 1)
                {
                    // A fenced stale leader (pre-partition, or restarted
                    // without noticing the election it slept through),
                    // or an entry that does not follow `prev_index`.
                    out.push(Effect::Dropped);
                    return;
                }
                self.note_term(now, term, out);
                if self.is_leader() {
                    // Equal-term append from another claimed leader —
                    // impossible with exclusive votes; drop defensively.
                    out.push(Effect::Dropped);
                    return;
                }
                self.election = None;
                self.last_leader_seen = now;
                if self.log.term_at(prev_index) != Some(prev_term) {
                    // Appends were lost, or our suffix is a deposed
                    // leader's: store and ack nothing, and ask for the
                    // log after the prefix we know is committed.
                    self.send(leader, self.sync_request(), out);
                    return;
                }
                // The last index this append shows we share.
                let shared = match entry {
                    None => prev_index,
                    Some(entry) => {
                        self.log.store(*entry);
                        prev_index + 1
                    }
                };
                self.log.note_commit(commit.min(shared));
                self.apply_committed(out);
                // The ack is also the leader's lease.
                self.send(leader, self.ack(shared), out);
            }
            ControlMessage::ReplAck {
                index,
                replica,
                term,
            } => {
                if term > self.log.term {
                    // The replica knows a newer leadership than ours.
                    self.note_term(now, term, out);
                } else if term < self.log.term || !self.is_leader() {
                    // An ack echoing a fenced term, or one addressed to
                    // a leadership we no longer hold.
                    out.push(Effect::Dropped);
                } else {
                    self.peer_heard.insert(replica, now);
                    self.log.ack(index, replica);
                    self.apply_committed(out);
                }
            }
            // Leader side: replay the requested suffix as ordinary
            // appends (bounded per request; the follower re-asks if it
            // is still behind afterwards). A request from a replica
            // behind on terms is still served — the replayed appends
            // carry our term and bring it forward.
            ControlMessage::ReplSyncRequest {
                after,
                replica,
                term,
            } => {
                if term > self.log.term {
                    self.note_term(now, term, out);
                } else if self.is_leader() {
                    self.peer_heard.insert(replica, now);
                    let suffix = self.log.entries_after(after).take(Replica::RESYNC_BATCH);
                    self.replay(replica, None, suffix, out);
                }
            }
            ControlMessage::LeaderQuery {
                candidate,
                term,
                last_term,
                last_index,
                ttl: _,
            } => {
                // Our own flooded campaign echoed back, or a duplicate
                // flood copy already answered.
                if candidate == me || !self.answered_queries.insert((candidate, term)) {
                    return;
                }
                let (granted, leader) = if self.is_leader() && term <= self.log.term {
                    // Still alive and unfenced: tell the candidate to
                    // stand down.
                    (false, true)
                } else {
                    let granted = self.log.grant_vote(term, (last_term, last_index));
                    if granted {
                        // Give the candidate a full takeover window to
                        // win before we campaign ourselves.
                        self.last_leader_seen = now;
                        self.election = None;
                    }
                    // Adopt the campaign term (steps us down if we were
                    // a fenced leader).
                    self.note_term(now, term, out);
                    (granted, false)
                };
                let reply = ControlMessage::LeaderQueryReply {
                    candidate,
                    responder: me,
                    term: self.log.term,
                    granted,
                    leader,
                    ttl: 0,
                };
                self.send(candidate, reply, out);
            }
            ControlMessage::LeaderQueryReply {
                candidate,
                responder,
                term,
                granted,
                leader,
                ttl: _,
            } => {
                if candidate != me || responder == me {
                    return; // Flood copy addressed to someone else.
                }
                if leader {
                    // An unfenced leader answered: abandon the campaign
                    // and treat the reply as a liveness signal.
                    self.election = None;
                    self.last_leader_seen = now;
                    self.note_term(now, term, out);
                } else if !granted {
                    // A refusal carrying a higher term fences us.
                    self.note_term(now, term, out);
                } else if let Some(el) = self.election.as_mut().filter(|el| el.term == term) {
                    el.votes.insert(responder);
                    self.try_win(out);
                }
            }
            // Members also hear the leader's host-directed hellos: an
            // unfenced active leader resets takeover patience.
            ControlMessage::ControllerHello {
                controller,
                standby,
                term,
                ..
            } => {
                if controller == me || standby {
                    return;
                }
                if term >= self.log.term {
                    self.last_leader_seen = now;
                    self.election = None;
                }
                self.note_term(now, term, out);
            }
            _ => {}
        }
    }

    fn send(&self, to: MacAddr, msg: ControlMessage, out: &mut Vec<Effect>) {
        out.push(Effect::Send { to, msg });
    }

    fn replay<'a>(
        &self,
        to: MacAddr,
        beat: Option<ControlMessage>,
        entries: impl Iterator<Item = &'a LogEntry>,
        out: &mut Vec<Effect>,
    ) {
        let entries = entries.map(|e| self.append_msg(Some(e))).collect();
        out.push(Effect::Replay { to, beat, entries });
    }

    fn arm(&self, timer: Timer, after: SimDuration, out: &mut Vec<Effect>) {
        out.push(Effect::Arm { timer, after });
    }

    /// Arms the takeover timer, staggered by this member's rank among
    /// the group (ordered by MAC) so the lowest-MAC *live* follower
    /// campaigns — and therefore promotes — first, deterministically.
    fn arm_takeover(&self, out: &mut Vec<Effect>) {
        let me = self.log.me;
        let rank = self.log.members.iter().filter(|&&m| m < me).count() as u64;
        let stagger = self.heartbeat.saturating_mul(rank);
        self.arm(Timer::Takeover, self.takeover_timeout + stagger, out);
    }

    /// The one place a `ReplAppend` is built: a live append, a replayed
    /// entry (keeping its historical term, so same index + same term ⇒
    /// same entry survives leader changes) or, without an entry, a
    /// heartbeat that checks the follower holds our last entry.
    fn append_msg(&self, entry: Option<&LogEntry>) -> ControlMessage {
        let prev_index = entry.map_or(self.log.entries.len() as u64, |e| e.index - 1);
        ControlMessage::ReplAppend {
            leader: self.log.me,
            term: self.log.term,
            prev_index,
            prev_term: self.log.term_at(prev_index).unwrap_or_default(),
            commit: self.log.committed,
            entry: entry.map(|e| Box::new(e.clone())),
        }
    }

    fn ack(&self, index: u64) -> ControlMessage {
        ControlMessage::ReplAck {
            index,
            replica: self.log.me,
            term: self.log.term,
        }
    }

    /// Asks the leader to replay the log after our commit index (lost
    /// appends, a deposed leader's suffix or a crash window): the
    /// leader holds that prefix, so its first replayed entry passes the
    /// consistency check.
    fn sync_request(&self) -> ControlMessage {
        ControlMessage::ReplSyncRequest {
            after: self.log.committed,
            replica: self.log.me,
            term: self.log.term,
        }
    }

    /// Hands the entries committed since the last call to the adapter,
    /// in index order: the one place an [`Effect::Apply`] is made.
    fn apply_committed(&mut self, out: &mut Vec<Effect>) {
        let (from, to) = (self.applied as usize, self.log.committed as usize);
        for entry in &self.log.entries[from..to] {
            (self.applied, self.version) = (entry.index, entry.version);
            let (version, delta) = (entry.version, entry.delta.clone());
            out.push(Effect::Apply { version, delta });
        }
    }

    /// Records a term observed on the wire; a leader seeing a higher
    /// term steps down and rejoins as a follower. Adopting a higher term
    /// also fences any in-flight campaign at or below it — a delayed
    /// vote for the dead campaign must never promote us into a term the
    /// group has already moved past — and prunes the answered-queries
    /// dedup set of terms that can no longer receive a vote (unbounded
    /// growth over long chaos soaks otherwise).
    fn note_term(&mut self, now: SimTime, term: u64, out: &mut Vec<Effect>) {
        let before = self.log.term;
        let stepped_down = self.log.observe_term(term);
        let adopted = self.log.term;
        if adopted > before {
            if self.election.as_ref().is_some_and(|el| el.term <= adopted) {
                // The election timer (already armed) re-arms takeover.
                self.election = None;
            }
            self.answered_queries.retain(|&(_, t)| t >= adopted);
        }
        if stepped_down {
            out.push(Effect::SteppedDown);
            self.election = None;
            self.last_leader_seen = now;
            self.arm_takeover(out);
        }
    }

    /// Starts a leadership campaign for the next term: vote for
    /// ourselves, ask every member for theirs, and give up (to retry
    /// later) if no quorum materializes within a takeover window.
    fn begin_election(&mut self, out: &mut Vec<Effect>) {
        // Past the current term AND past every vote already cast, so a
        // losing candidate's retry targets a genuinely fresh term.
        let term = self.log.term.max(self.log.voted_in) + 1;
        let (last_term, last_index) = self.log.last();
        let granted = self.log.grant_vote(term, (last_term, last_index));
        debug_assert!(granted, "a fresh term and our own log");
        let candidate = self.log.me;
        self.election = Some(Election {
            term,
            votes: BTreeSet::from([candidate]),
        });
        let msg = ControlMessage::LeaderQuery {
            candidate,
            term,
            last_term,
            last_index,
            ttl: 0,
        };
        out.push(Effect::Campaign { term, msg });
        self.try_win(out);
        if self.election.is_some() {
            self.arm(Timer::Election, self.takeover_timeout, out);
        }
    }

    /// Promotes if the current campaign holds an election quorum. A
    /// campaign whose term the log has already caught up to (a refusal
    /// or append raised it mid-flight) is abandoned instead: promoting
    /// into a term the group has moved past would mint a second leader
    /// for a term someone else may already hold.
    fn try_win(&mut self, out: &mut Vec<Effect>) {
        let Some(el) = self.election.as_ref() else {
            return;
        };
        if el.term <= self.log.term {
            // The election timer (armed by the campaign) re-arms takeover.
            self.election = None;
            return;
        }
        if el.votes.len() < self.log.election_quorum() {
            return;
        }
        let term = el.term;
        self.election = None;
        self.log.promote_to(term);
        if self.log.last().1 > self.log.committed {
            // Raft's no-op: only an entry of our term commits the
            // inherited suffix.
            self.propose(TopoDelta::default(), out);
        }
        out.push(Effect::Promoted { term });
        if self.log.peers().next().is_some() {
            self.arm(Timer::Heartbeat, self.heartbeat, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u64) -> MacAddr {
        MacAddr::for_host(n)
    }

    fn delta() -> TopoDelta {
        TopoDelta::default()
    }

    #[test]
    fn single_member_commits_immediately() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0)], ReplicaRole::Leader);
        assert_eq!(log.quorum(), 1);
        let e = log.append(1, delta());
        assert_eq!(e.index, 1);
        assert_eq!(log.committed(), 1);
    }

    #[test]
    fn three_member_majority_commit() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        assert_eq!(log.quorum(), 2);
        let e = log.append(1, delta());
        assert_eq!(log.committed(), 0, "self-ack alone is not a majority");
        log.ack(e.index, mac(1));
        assert_eq!(log.committed(), 1);
        // Third ack changes nothing.
        log.ack(e.index, mac(2));
        assert_eq!(log.committed(), 1);
    }

    #[test]
    fn an_ack_covers_the_prefix_before_it() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        log.append(1, delta());
        let e2 = log.append(2, delta());
        log.ack(e2.index, mac(1));
        assert_eq!(log.committed(), 2);
        // A late ack for entry 1 does not move the match index back.
        log.ack(1, mac(1));
        assert_eq!(log.matched(mac(1)), 2);
        assert_eq!(log.matched(mac(2)), 0);
    }

    #[test]
    fn foreign_acks_rejected() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1)], ReplicaRole::Leader);
        let e = log.append(1, delta());
        log.ack(e.index, mac(99));
        assert_eq!(log.committed(), 0);
    }

    fn entry_at(index: u64, term: u64) -> LogEntry {
        LogEntry {
            index,
            version: index,
            term,
            delta: delta(),
        }
    }

    #[test]
    fn follower_stores_and_dedups() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        let e = entry_at(1, 1);
        log.store(e.clone());
        log.store(e);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn promotion_resumes_sequencing_and_bumps_term() {
        let mut log =
            ReplicatedLog::new(mac(1), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        log.observe_term(1);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 1));
        log.promote_to(log.term() + 1);
        assert_eq!(log.role(), ReplicaRole::Leader);
        assert_eq!(log.term(), 2, "promotion must advance the term");
        let e = log.append(3, delta());
        assert_eq!(e.index, 3);
        assert_eq!(e.term, 2);
    }

    #[test]
    fn higher_term_steps_a_leader_down() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        assert_eq!(log.term(), 1);
        assert!(!log.observe_term(1), "equal term is not a step-down");
        assert!(log.observe_term(3));
        assert_eq!(log.role(), ReplicaRole::Follower);
        assert_eq!(log.term(), 3);
        // Idempotent: observing the same term again changes nothing.
        assert!(!log.observe_term(3));
    }

    #[test]
    fn votes_are_exclusive_per_term() {
        let mut log =
            ReplicatedLog::new(mac(2), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        assert!(!log.grant_vote(1, (0, 0)), "the bootstrap term is taken");
        assert!(log.grant_vote(2, (0, 0)));
        assert!(
            !log.grant_vote(2, (0, 0)),
            "second candidate of term 2 loses"
        );
        assert!(log.grant_vote(3, (0, 0)), "next term is a fresh vote");
        // A stale term (≤ current) never gets a vote.
        log.observe_term(5);
        assert!(!log.grant_vote(5, (0, 0)));
        assert!(log.grant_vote(6, (0, 0)));
    }

    #[test]
    fn vote_needs_a_log_at_least_as_up_to_date() {
        // The voter's log ends at (term 2, index 2) — stored, not
        // known committed: it counts all the same.
        let mut log =
            ReplicatedLog::new(mac(2), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 2));
        assert_eq!(log.committed(), 0);
        assert!(!log.grant_vote(5, (1, 9)), "an older last term loses");
        assert!(
            !log.grant_vote(5, (2, 1)),
            "a shorter log of the same term loses"
        );
        assert!(log.grant_vote(5, (2, 2)));
        assert!(log.grant_vote(6, (3, 1)), "a newer last term wins");
    }

    #[test]
    fn two_member_group_elects_on_a_single_vote() {
        let log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        assert_eq!(log.election_quorum(), 1);
        let three = ReplicatedLog::new(mac(1), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        assert_eq!(three.election_quorum(), 2);
    }

    #[test]
    fn store_cuts_the_log_at_a_term_conflict() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        for index in 1..=3 {
            log.store(entry_at(index, 1));
        }
        // The same entry again changes nothing, even below the end.
        log.store(entry_at(2, 1));
        assert_eq!(log.len(), 3);
        // Another term at index 2: entries 2 and 3 were a deposed
        // leader's.
        log.store(entry_at(2, 2));
        assert_eq!(log.last(), (2, 2));
        let terms = [0, 1, 2, 3].map(|index| log.term_at(index));
        assert_eq!(terms, [Some(0), Some(1), Some(2), None]);
    }

    #[test]
    fn old_term_entries_commit_only_with_one_of_the_current_term() {
        let mut log =
            ReplicatedLog::new(mac(1), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 1));
        log.promote_to(log.term() + 1);
        // A majority holds entry 2, but its term is not ours.
        log.ack(2, mac(2));
        assert_eq!(log.committed(), 0);
        let e3 = log.append(3, delta());
        log.ack(e3.index, mac(2));
        assert_eq!(log.committed(), 3);
    }

    #[test]
    fn catch_up_range() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0)], ReplicaRole::Leader);
        for v in 1..=5 {
            log.append(v, delta());
        }
        let idx: Vec<u64> = log.entries_after(2).map(|e| e.index).collect();
        assert_eq!(idx, vec![3, 4, 5]);
    }

    const HEARTBEAT: SimDuration = SimDuration(50_000_000);
    const TAKEOVER: SimDuration = SimDuration(250_000_000);

    fn replica(me: u64, role: ReplicaRole) -> Replica {
        let members = vec![mac(0), mac(1), mac(2)];
        Replica::new(mac(me), members, role, HEARTBEAT, TAKEOVER)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Delivers `msg` and returns the effects.
    fn deliver(r: &mut Replica, now: SimTime, msg: ControlMessage) -> Vec<Effect> {
        let mut out = Vec::new();
        r.on_message(now, msg, &mut out);
        out
    }

    /// A leader of term 1 holding one uncommitted entry.
    fn leader() -> Replica {
        let mut r = replica(0, ReplicaRole::Leader);
        r.propose(delta(), &mut Vec::new());
        r
    }

    /// A follower whose takeover timer has fired into a campaign for
    /// term 2 (votes held: its own).
    fn candidate() -> Replica {
        let mut r = replica(1, ReplicaRole::Follower);
        let mut out = Vec::new();
        r.on_timer(at(250), Timer::Takeover, &mut out);
        assert!(matches!(out[0], Effect::Campaign { term: 2, .. }));
        r
    }

    /// Each of the four frames that used to count a non-member — as
    /// heard (ack, sync request), as a candidate, as a voter — is
    /// dropped before it touches any state; from a member it lands.
    #[test]
    fn a_foreign_sender_is_dropped_before_touching_state() {
        type Frame = fn(MacAddr) -> ControlMessage;
        let cases: [(Replica, Frame); 4] = [
            (leader(), |replica| ControlMessage::ReplAck {
                index: 1,
                replica,
                term: 1,
            }),
            (leader(), |replica| ControlMessage::ReplSyncRequest {
                after: 0,
                replica,
                term: 1,
            }),
            (replica(0, ReplicaRole::Follower), |candidate| {
                ControlMessage::LeaderQuery {
                    candidate,
                    term: 2,
                    last_term: 0,
                    last_index: 0,
                    ttl: 0,
                }
            }),
            (candidate(), |responder| ControlMessage::LeaderQueryReply {
                candidate: mac(1),
                responder,
                term: 2,
                granted: true,
                leader: false,
                ttl: 0,
            }),
        ];
        for (mut r, frame) in cases {
            let before = r.clone();
            let out = deliver(&mut r, at(300), frame(mac(99)));
            assert_eq!(out, [Effect::Dropped], "{:?}", frame(mac(99)));
            assert_eq!(r, before, "a foreign sender touched state");
            let out = deliver(&mut r, at(300), frame(mac(2)));
            assert!(!out.contains(&Effect::Dropped), "{out:?}");
            assert_ne!(r, before, "a member's frame must land");
        }
    }

    #[test]
    fn lease_needs_a_member_quorum_and_lapses() {
        let mut r = leader();
        assert!(!r.may_mutate(at(10)), "nobody heard yet");
        let ack = ControlMessage::ReplAck {
            index: 0,
            replica: mac(1),
            term: 1,
        };
        assert_eq!(deliver(&mut r, at(10), ack), []);
        // Held for four heartbeats after the last contact, not longer.
        assert!(r.may_mutate(at(210)));
        assert!(!r.may_mutate(at(211)));
    }

    fn append(prev: (u64, u64), commit: u64, entry: Option<LogEntry>) -> ControlMessage {
        ControlMessage::ReplAppend {
            leader: mac(0),
            term: 1,
            prev_index: prev.0,
            prev_term: prev.1,
            commit,
            entry: entry.map(Box::new),
        }
    }

    fn acked(out: &[Effect]) -> Vec<u64> {
        let ack = |e: &Effect| match e {
            Effect::Send {
                msg: ControlMessage::ReplAck { index, .. },
                ..
            } => Some(*index),
            _ => None,
        };
        out.iter().filter_map(ack).collect()
    }

    /// An append whose predecessor is missing is neither stored nor
    /// acked: the follower asks for the log after its commit index.
    /// Its commit index never passes what it shares with the leader.
    #[test]
    fn a_follower_acks_and_commits_only_what_it_shares() {
        let mut r = replica(1, ReplicaRole::Follower);
        let out = deliver(&mut r, at(1), append((1, 1), 2, Some(entry_at(2, 1))));
        let sync = ControlMessage::ReplSyncRequest {
            after: 0,
            replica: mac(1),
            term: 1,
        };
        assert_eq!(
            out,
            [Effect::Send {
                to: mac(0),
                msg: sync
            }]
        );
        assert!(r.log().is_empty());
        let out = deliver(&mut r, at(2), append((0, 0), 2, Some(entry_at(1, 1))));
        assert_eq!(acked(&out), [1]);
        assert_eq!(r.log().committed(), 1, "entry 2 is not ours yet");
        let out = deliver(&mut r, at(3), append((2, 1), 2, None));
        assert!(acked(&out).is_empty(), "a heartbeat past our log");
        let out = deliver(&mut r, at(4), append((1, 1), 2, None));
        assert_eq!(acked(&out), [1]);
        // Entry 2 arrives; a late resend of entry 1 carries a commit
        // index past it, but shows only index 1 shared.
        deliver(&mut r, at(5), append((1, 1), 1, Some(entry_at(2, 1))));
        deliver(&mut r, at(6), append((0, 0), 2, Some(entry_at(1, 1))));
        assert_eq!(r.log().committed(), 1);
    }

    /// A leader's quarantine is its whole log, a follower's the
    /// committed prefix: a deposed leader's uncommitted quarantine goes
    /// when it steps down, and a follower's arrives with the commit.
    #[test]
    fn quarantine_follows_the_prefix_the_log_vouches_for() {
        let edge = (SwitchId(1), SwitchId(2));
        let gray = TopoDelta {
            quarantine: vec![edge],
            ..TopoDelta::default()
        };
        let mut r = replica(0, ReplicaRole::Leader);
        r.propose(gray.clone(), &mut Vec::new());
        assert!(r.quarantined().contains(&edge));
        let newer = ControlMessage::ReplAppend {
            leader: mac(1),
            term: 2,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entry: None,
        };
        let out = deliver(&mut r, at(10), newer);
        assert!(out.contains(&Effect::SteppedDown));
        assert!(r.quarantined().is_empty(), "entry 1 never committed");

        let mut r = replica(1, ReplicaRole::Follower);
        let entry = LogEntry {
            delta: gray,
            ..entry_at(1, 1)
        };
        deliver(&mut r, at(1), append((0, 0), 0, Some(entry)));
        assert_eq!(r.log().len(), 1);
        assert!(r.quarantined().is_empty(), "stored, not committed");
        deliver(&mut r, at(2), append((1, 1), 1, None));
        assert!(r.quarantined().contains(&edge));
    }

    /// The `(version, delta)` of each `Apply` in `out`.
    fn applied(out: &[Effect]) -> Vec<(u64, TopoDelta)> {
        let apply = |e: &Effect| match e {
            Effect::Apply { version, delta } => Some((*version, delta.clone())),
            _ => None,
        };
        out.iter().filter_map(apply).collect()
    }

    fn down(a: u64) -> TopoDelta {
        TopoDelta {
            down: vec![(SwitchId(a), SwitchId(a + 1))],
            ..TopoDelta::default()
        }
    }

    /// An entry is applied when its replica learns it committed, in
    /// index order: the leader on the ack that commits it, a follower on
    /// the append that carries the commit index. Two proposals in flight
    /// take consecutive versions.
    #[test]
    fn entries_apply_in_index_order_once_committed() {
        let mut r = replica(0, ReplicaRole::Leader);
        let mut out = Vec::new();
        r.propose(down(1), &mut out);
        r.propose(down(2), &mut out);
        assert_eq!(applied(&out), []);
        let ack = ControlMessage::ReplAck {
            index: 2,
            replica: mac(2),
            term: 1,
        };
        let out = deliver(&mut r, at(10), ack);
        assert_eq!(applied(&out), [(1, down(1)), (2, down(2))]);
        assert_eq!(r.version(), 2);

        let mut f = replica(1, ReplicaRole::Follower);
        let [e1, e2] = [1, 2].map(|i| LogEntry {
            delta: down(i),
            ..entry_at(i, 1)
        });
        let out = deliver(&mut f, at(1), append((0, 0), 0, Some(e1)));
        assert_eq!(applied(&out), [], "stored, not committed");
        let out = deliver(&mut f, at(2), append((1, 1), 1, Some(e2)));
        assert_eq!(applied(&out), [(1, down(1))]);
        let out = deliver(&mut f, at(3), append((2, 1), 2, None));
        assert_eq!(applied(&out), [(2, down(2))]);
    }

    /// A leader cut off from both peers sequences and sends its change
    /// but never applies it, through any number of unanswered
    /// heartbeats and its deposition: a quarantine it marks reaches no
    /// pipeline.
    #[test]
    fn a_cut_off_leader_never_applies_its_own_proposal() {
        let mut r = replica(0, ReplicaRole::Leader);
        let gray = TopoDelta {
            quarantine: vec![(SwitchId(1), SwitchId(2))],
            ..TopoDelta::default()
        };
        let mut out = Vec::new();
        r.propose(gray, &mut out);
        for beat in 1..=8 {
            r.on_timer(at(50 * beat), Timer::Heartbeat, &mut out);
        }
        let newer = ControlMessage::ReplAppend {
            leader: mac(1),
            term: 2,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entry: None,
        };
        r.on_message(at(500), newer, &mut out);
        assert!(out.contains(&Effect::SteppedDown));
        assert_eq!(applied(&out), []);
        assert_eq!(r.version(), 0);
    }

    /// A follower's first-hand change is not its to write: the leader
    /// sequences it (or, if the leader is gone, whoever wins next).
    #[test]
    fn a_followers_proposal_emits_nothing() {
        let mut r = replica(1, ReplicaRole::Follower);
        let before = r.clone();
        let mut out = Vec::new();
        r.propose(down(1), &mut out);
        assert_eq!(out, []);
        assert_eq!(r, before);
    }

    /// Raft's no-op: a winner holding an entry it never saw commit
    /// appends an empty one of its own term at once, and the ack that
    /// commits it applies both. A winner with nothing uncommitted
    /// appends nothing.
    #[test]
    fn a_new_leader_commits_its_inherited_suffix_with_a_no_op() {
        let vote = ControlMessage::LeaderQueryReply {
            candidate: mac(1),
            responder: mac(2),
            term: 2,
            granted: true,
            leader: false,
            ttl: 0,
        };
        let mut c = candidate();
        let out = deliver(&mut c, at(300), vote.clone());
        assert!(out.contains(&Effect::Promoted { term: 2 }));
        assert_eq!(c.log().len(), 0);

        let mut f = replica(1, ReplicaRole::Follower);
        let x = LogEntry {
            delta: down(1),
            ..entry_at(1, 1)
        };
        deliver(&mut f, at(1), append((0, 0), 0, Some(x)));
        f.on_timer(at(260), Timer::Takeover, &mut Vec::new());
        let out = deliver(&mut f, at(261), vote);
        assert!(out.contains(&Effect::Promoted { term: 2 }));
        assert_eq!(f.log().last(), (2, 2));
        assert_eq!(applied(&out), []);
        let ack = ControlMessage::ReplAck {
            index: 2,
            replica: mac(2),
            term: 2,
        };
        let out = deliver(&mut f, at(262), ack);
        assert_eq!(applied(&out), [(1, down(1)), (2, TopoDelta::default())]);
    }

    /// The leader judges a link against its uncommitted entries: a down
    /// proposed, not yet acked, reads as down; a follower's suffix does
    /// not count.
    #[test]
    fn link_pending_reads_the_leaders_uncommitted_entries() {
        use dumbnet_types::PortNo;
        let edge = (SwitchId(1), SwitchId(2));
        let mut r = replica(0, ReplicaRole::Leader);
        assert_eq!(r.link_pending(edge), None);
        r.propose(down(1), &mut Vec::new());
        assert_eq!(r.link_pending(edge), Some(false));
        let port = |s| dumbnet_types::PortId::new(SwitchId(s), PortNo::new(1).unwrap());
        let up = TopoDelta {
            up: vec![(port(2), port(1))],
            ..TopoDelta::default()
        };
        r.propose(up, &mut Vec::new());
        assert_eq!(r.link_pending(edge), Some(true));
        let mut f = replica(1, ReplicaRole::Follower);
        let x = LogEntry {
            delta: down(1),
            ..entry_at(1, 1)
        };
        deliver(&mut f, at(1), append((0, 0), 0, Some(x)));
        assert_eq!(f.link_pending(edge), None);
    }

    #[test]
    fn heartbeat_replays_unacked_entries_in_one_burst_per_peer() {
        let mut r = leader();
        let ack = ControlMessage::ReplAck {
            index: 1,
            replica: mac(1),
            term: 1,
        };
        deliver(&mut r, at(10), ack);
        assert_eq!(r.log().committed(), 1);
        let mut out = Vec::new();
        r.on_timer(at(50), Timer::Heartbeat, &mut out);
        let burst = |e: &Effect| match e {
            Effect::Replay { to, beat, entries } => Some((*to, beat.is_some(), entries.len())),
            _ => None,
        };
        let bursts: Vec<_> = out.iter().filter_map(burst).collect();
        assert_eq!(bursts, [(mac(1), true, 0), (mac(2), true, 1)]);
        let (timer, after) = (Timer::Heartbeat, HEARTBEAT);
        assert_eq!(out.last(), Some(&Effect::Arm { timer, after }));
    }
}
