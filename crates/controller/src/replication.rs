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

use std::collections::{BTreeMap, BTreeSet};

use dumbnet_packet::control::TopoDelta;
use dumbnet_packet::ControlMessage;
use dumbnet_types::{norm_edge, MacAddr, SimDuration, SimTime, SwitchId};

/// Role of this replica in the controller group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaRole {
    /// Sequences entries and serves clients.
    Leader,
    /// Applies replicated entries; candidate for takeover.
    Follower,
}

/// One log entry: a topology delta and the version it produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// Log position (1-based, dense).
    pub index: u64,
    /// Topology version after applying.
    pub version: u64,
    /// Leadership term the entry was sequenced under.
    pub term: u64,
    /// The change.
    pub delta: TopoDelta,
}

/// The replicated topology log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplicatedLog {
    role: ReplicaRole,
    /// All controller members (self included).
    members: Vec<MacAddr>,
    me: MacAddr,
    entries: BTreeMap<u64, LogEntry>,
    /// Leader side: acks per index (self-ack included).
    acks: BTreeMap<u64, BTreeSet<MacAddr>>,
    committed: u64,
    next_index: u64,
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
            members,
            me,
            entries: BTreeMap::new(),
            acks: BTreeMap::new(),
            committed: 0,
            next_index: 1,
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
    /// Every entry already stored is self-acked so the commit index can
    /// advance once peers re-acknowledge the prefix under the new
    /// leadership (the old leader's ack bookkeeping died with it).
    pub fn promote_to(&mut self, term: u64) {
        debug_assert!(term > self.term, "promotion must advance the term");
        self.role = ReplicaRole::Leader;
        self.term = self.term.max(term);
        self.next_index = self.entries.keys().max().map_or(1, |m| m + 1);
        for &ix in self.entries.keys() {
            self.acks.entry(ix).or_default().insert(self.me);
        }
        self.advance_commit();
    }

    /// Steps down to follower without touching the term (a restarted
    /// ex-leader rejoining the group until it learns who leads now).
    pub fn demote(&mut self) {
        self.role = ReplicaRole::Follower;
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

    /// Whether a campaign for `term` by a candidate whose contiguous
    /// log reaches `candidate_floor` gets this replica's vote. Granting
    /// records the vote — at most one candidate can win any term, and a
    /// candidate missing entries this replica knows are committed is
    /// rejected (the elected leader must hold every committed entry).
    pub fn grant_vote(&mut self, term: u64, candidate_floor: u64) -> bool {
        if term <= self.term || term <= self.voted_in || candidate_floor < self.committed {
            return false;
        }
        self.voted_in = term;
        true
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
            index: self.next_index,
            version,
            term: self.term,
            delta,
        };
        self.next_index += 1;
        self.entries.insert(entry.index, entry.clone());
        let acks = self.acks.entry(entry.index).or_default();
        acks.insert(self.me);
        self.advance_commit();
        entry
    }

    /// Follower: stores a replicated entry. Returns `true` if it was new
    /// (and should be acked). An entry already held at the same index is
    /// replaced only when the incoming one carries a higher term — the
    /// authoritative leader's copy overwrites a fenced stale leader's
    /// divergent suffix — and never at or below the committed watermark:
    /// the committed prefix is immutable regardless of terms (defense in
    /// depth on top of the vote log-floor condition).
    pub fn store(&mut self, entry: LogEntry) -> bool {
        match self.entries.get(&entry.index) {
            None => {
                self.entries.insert(entry.index, entry);
                true
            }
            Some(existing) if existing.term < entry.term && entry.index > self.committed => {
                self.acks.remove(&entry.index);
                self.entries.insert(entry.index, entry);
                true
            }
            Some(_) => false,
        }
    }

    /// Follower: drops every entry above the committed watermark. Called
    /// on first contact from a higher-term leader: the uncommitted
    /// suffix may be a fenced leader's divergence, and `store`'s
    /// replace-on-higher-term rule cannot repair an entry once the
    /// commit watermark (advanced by that same leader's heartbeats)
    /// passes it. Uncommitted entries are safe to shed — anything the
    /// new regime committed is held by its leader (vote log-floor
    /// condition) and comes back through re-sync.
    pub fn truncate_uncommitted(&mut self) {
        self.entries.retain(|&ix, _| ix <= self.committed);
        self.acks.retain(|&ix, _| ix <= self.committed);
        self.next_index = self.committed + 1;
    }

    /// Follower: adopts the leader's commit index as carried by a
    /// `ReplAppend`/heartbeat, clamped to our contiguous prefix (an
    /// entry we do not hold cannot be considered committed here). This
    /// is what makes the vote log-floor condition meaningful on
    /// replicas that never led: without it `committed` stays 0 forever
    /// and any candidate passes the floor check.
    pub fn note_commit(&mut self, leader_commit: u64) {
        let cap = self.highest_contiguous();
        self.committed = self.committed.max(leader_commit.min(cap));
    }

    /// Leader: records an ack. Returns the new committed index if the
    /// quorum advanced.
    pub fn ack(&mut self, index: u64, from: MacAddr) -> Option<u64> {
        if !self.members.contains(&from) {
            return None;
        }
        self.acks.entry(index).or_default().insert(from);
        let before = self.committed;
        self.advance_commit();
        (self.committed > before).then_some(self.committed)
    }

    /// Entries in `(after, to]` for catch-up.
    pub fn entries_after(&self, after: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.range(after + 1..).map(|(_, e)| e)
    }

    /// Highest index `N` such that every entry `1..=N` is present. A
    /// follower whose log has holes (replication messages lost, or the
    /// replica was down) reports this as its re-sync floor.
    #[must_use]
    pub fn highest_contiguous(&self) -> u64 {
        let mut n = 0;
        while self.entries.contains_key(&(n + 1)) {
            n += 1;
        }
        n
    }

    /// Whether the log is missing any entry below its highest index.
    #[must_use]
    pub fn has_gap(&self) -> bool {
        self.entries
            .keys()
            .next_back()
            .is_some_and(|&hi| self.highest_contiguous() < hi)
    }

    /// Leader: stored indices not yet acknowledged by `peer`, oldest
    /// first — the retransmission worklist for the ack-less-retry loop.
    #[must_use]
    pub fn unacked_for(&self, peer: MacAddr) -> Vec<u64> {
        self.entries
            .keys()
            .copied()
            .filter(|ix| !self.acks.get(ix).is_some_and(|acked| acked.contains(&peer)))
            .collect()
    }

    /// The entry at `index`, if stored.
    #[must_use]
    pub fn entry(&self, index: u64) -> Option<&LogEntry> {
        self.entries.get(&index)
    }

    /// All stored entries in index order (invariant audits: term
    /// monotonicity, cross-replica convergence).
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.values()
    }

    fn advance_commit(&mut self) {
        let q = self.quorum();
        while let Some(acks) = self.acks.get(&(self.committed + 1)) {
            if acks.len() >= q && self.entries.contains_key(&(self.committed + 1)) {
                self.committed += 1;
            } else {
                break;
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
    /// A delta entered the state machine (learned first-hand, or stored
    /// from the leader): apply it to the topology view.
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
    /// Topology version the applied deltas have reached.
    version: u64,
    last_leader_seen: SimTime,
    election: Option<Election>,
    /// Campaigns already answered, keyed by `(candidate, term)` —
    /// flooded queries arrive many times and must draw one reply.
    answered_queries: BTreeSet<(MacAddr, u64)>,
    /// Leader lease bookkeeping: when each peer was last heard (acks,
    /// sync requests). See [`Replica::may_mutate`].
    peer_heard: BTreeMap<MacAddr, SimTime>,
    /// Edges under quarantine as the log says (normalized). Followers
    /// mirror it from replicated deltas, so a promoted leader inherits
    /// the quarantine view.
    quarantined: BTreeSet<(SwitchId, SwitchId)>,
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
            version: 0,
            last_leader_seen: SimTime::ZERO,
            election: None,
            answered_queries: BTreeSet::new(),
            peer_heard: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
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

    /// Topology version the applied deltas have reached.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A whole topology was installed outside the log (discovery
    /// finished, or a preload): versions count on from `version`.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Edges currently under quarantine (normalized order).
    #[must_use]
    pub fn quarantined(&self) -> &BTreeSet<(SwitchId, SwitchId)> {
        &self.quarantined
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
            self.log.demote();
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
                let beat = LogEntry {
                    index: 0,
                    version: self.version,
                    term: self.log.term,
                    delta: TopoDelta::default(),
                };
                for peer in self.log.peers() {
                    // Ack-less retry: replay entries this peer has not
                    // acknowledged (lost appends or acks), a bounded
                    // batch per beat.
                    let unacked = self.log.unacked_for(peer);
                    let due = unacked.iter().take(Replica::RESEND_PER_BEAT);
                    let due = due.filter_map(|&ix| self.log.entry(ix));
                    self.replay(peer, Some(self.append_msg(&beat)), due, out);
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

    /// A topology change learned first-hand. The leader sequences it
    /// and replicates it; a follower (switch notifications flood to
    /// every member) only applies it locally — the leader's entry for
    /// the same event arrives through the log.
    pub fn propose(&mut self, delta: TopoDelta, out: &mut Vec<Effect>) {
        let version = self.version + 1;
        self.apply(version, delta.clone(), out);
        if self.is_leader() {
            let entry = self.log.append(version, delta);
            for peer in self.log.peers() {
                self.send(peer, self.append_msg(&entry), out);
            }
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
                index,
                version,
                delta,
                leader,
                term,
                entry_term,
                commit,
            } => {
                if term < self.log.term {
                    // A fenced stale leader (pre-partition, or restarted
                    // without noticing the election it slept through).
                    out.push(Effect::Dropped);
                    return;
                }
                if term > self.log.term {
                    // First contact from a new leader regime. Our
                    // uncommitted suffix may be a fenced leader's
                    // divergence (ours, or one we stored); the log never
                    // truncates on conflict, so shed it now — before the
                    // commit watermark can freeze it — and re-fetch the
                    // authoritative entries via re-sync.
                    self.log.truncate_uncommitted();
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
                if index == 0 {
                    self.log.note_commit(commit);
                    // Pure heartbeat. A version ahead of ours means we
                    // missed appends (lost packets or a crash window):
                    // ask the leader to re-send from our contiguous
                    // floor. The ack (index 0) is the leader's lease.
                    if version > self.version {
                        self.send(leader, self.sync_request(), out);
                    }
                    self.send(leader, self.ack(0), out);
                    return;
                }
                let entry = LogEntry {
                    index,
                    version,
                    term: entry_term,
                    delta: *delta,
                };
                let fresh = self.log.store(entry.clone());
                // After storing: the entry itself may complete the
                // contiguous prefix the leader's commit index covers.
                self.log.note_commit(commit);
                if fresh {
                    self.apply(version.max(self.version), entry.delta, out);
                }
                self.send(leader, self.ack(index), out);
                // A hole below this entry means earlier appends were
                // lost: request them rather than waiting for the next
                // heartbeat to notice.
                if self.log.has_gap() {
                    self.send(leader, self.sync_request(), out);
                }
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
                    if index > 0 {
                        let _ = self.log.ack(index, replica);
                    }
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
                log_floor,
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
                    let granted = self.log.grant_vote(term, log_floor);
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
        let entries = entries.map(|e| self.append_msg(e)).collect();
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
    /// same entry survives leader changes) or, as the empty entry at
    /// index 0, a heartbeat.
    fn append_msg(&self, e: &LogEntry) -> ControlMessage {
        ControlMessage::ReplAppend {
            index: e.index,
            version: e.version,
            delta: Box::new(e.delta.clone()),
            leader: self.log.me,
            term: self.log.term,
            entry_term: e.term,
            commit: self.log.committed,
        }
    }

    fn ack(&self, index: u64) -> ControlMessage {
        ControlMessage::ReplAck {
            index,
            replica: self.log.me,
            term: self.log.term,
        }
    }

    /// Asks the leader to replay the log after our contiguous floor
    /// (lost appends or a crash window left us behind).
    fn sync_request(&self) -> ControlMessage {
        ControlMessage::ReplSyncRequest {
            after: self.log.highest_contiguous(),
            replica: self.log.me,
            term: self.log.term,
        }
    }

    /// Enters a delta into the state machine, leader and follower
    /// alike: mirrors its quarantine changes (a hard link transition
    /// sheds the edge's gray state) and hands it to the adapter.
    fn apply(&mut self, version: u64, delta: TopoDelta, out: &mut Vec<Effect>) {
        let hard = delta.down.iter().copied();
        let hard = hard.chain(delta.up.iter().map(|&(pa, pb)| (pa.switch, pb.switch)));
        for (a, b) in hard.chain(delta.unquarantine.iter().copied()) {
            self.quarantined.remove(&norm_edge(a, b));
        }
        for &(a, b) in &delta.quarantine {
            self.quarantined.insert(norm_edge(a, b));
        }
        self.version = version;
        out.push(Effect::Apply { version, delta });
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
        let log_floor = self.log.highest_contiguous();
        if !self.log.grant_vote(term, log_floor) {
            self.arm_takeover(out);
            return;
        }
        let candidate = self.log.me;
        self.election = Some(Election {
            term,
            votes: BTreeSet::from([candidate]),
        });
        let msg = ControlMessage::LeaderQuery {
            candidate,
            term,
            log_floor,
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
        assert_eq!(log.ack(e.index, mac(1)), Some(1));
        // Third ack changes nothing.
        assert_eq!(log.ack(e.index, mac(2)), None);
    }

    #[test]
    fn commit_is_in_order() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        let e1 = log.append(1, delta());
        let e2 = log.append(2, delta());
        // Ack entry 2 first: nothing commits until 1 is acked.
        assert_eq!(log.ack(e2.index, mac(1)), None);
        assert_eq!(log.committed(), 0);
        assert_eq!(log.ack(e1.index, mac(1)), Some(2));
        assert_eq!(log.committed(), 2);
    }

    #[test]
    fn foreign_acks_rejected() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1)], ReplicaRole::Leader);
        let e = log.append(1, delta());
        assert_eq!(log.ack(e.index, mac(99)), None);
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
        assert!(log.store(e.clone()));
        assert!(!log.store(e));
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
        assert!(!log.grant_vote(1, 0), "the bootstrap term is taken");
        assert!(log.grant_vote(2, 0));
        assert!(!log.grant_vote(2, 0), "second candidate of term 2 loses");
        assert!(log.grant_vote(3, 0), "next term is a fresh vote");
        // A stale term (≤ current) never gets a vote.
        log.observe_term(5);
        assert!(!log.grant_vote(5, 0));
        assert!(log.grant_vote(6, 0));
    }

    #[test]
    fn vote_rejects_candidate_behind_committed() {
        // Voter committed up to 2; a candidate whose contiguous log ends
        // at 1 would lose committed data, so it is rejected.
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        let e1 = log.append(1, delta());
        let e2 = log.append(2, delta());
        log.ack(e1.index, mac(1));
        log.ack(e2.index, mac(1));
        assert_eq!(log.committed(), 2);
        log.demote();
        assert!(!log.grant_vote(7, 1));
        assert!(log.grant_vote(7, 2));
    }

    #[test]
    fn two_member_group_elects_on_a_single_vote() {
        let log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        assert_eq!(log.election_quorum(), 1);
        let three = ReplicatedLog::new(mac(1), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        assert_eq!(three.election_quorum(), 2);
    }

    #[test]
    fn store_replaces_stale_term_entry() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        assert!(log.store(entry_at(3, 1)));
        // The fenced stale leader's copy does not displace a newer term.
        let stale = LogEntry {
            version: 99,
            ..entry_at(3, 1)
        };
        assert!(!log.store(stale));
        // The new leader's higher-term copy overwrites.
        let fresh = LogEntry {
            version: 7,
            ..entry_at(3, 2)
        };
        assert!(log.store(fresh));
        assert_eq!(log.entry(3).unwrap().version, 7);
    }

    #[test]
    fn promotion_self_acks_stored_prefix_so_commit_can_advance() {
        let mut log =
            ReplicatedLog::new(mac(1), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        log.observe_term(1);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 1));
        log.promote_to(log.term() + 1);
        // Peer re-acks the prefix under the new leadership.
        assert_eq!(log.ack(1, mac(2)), Some(1));
        assert_eq!(log.ack(2, mac(2)), Some(2));
        assert_eq!(log.committed(), 2);
    }

    #[test]
    fn note_commit_clamps_to_contiguous_prefix() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        log.store(entry_at(1, 1));
        // Entry 2 lost in flight; 3 held.
        log.store(entry_at(3, 1));
        // The leader claims 3 committed, but our contiguous prefix ends
        // at 1: only that much may be considered committed locally.
        log.note_commit(3);
        assert_eq!(log.committed(), 1);
        // Commit never regresses.
        log.note_commit(0);
        assert_eq!(log.committed(), 1);
        // The hole fills; the next heartbeat's commit index lands fully.
        log.store(entry_at(2, 1));
        log.note_commit(3);
        assert_eq!(log.committed(), 3);
    }

    #[test]
    fn learned_commit_fences_votes_for_behind_candidates() {
        // A follower that never led learns the commit index from the
        // leader's appends and then refuses a candidate whose log ends
        // below it — the scenario where a vacuous floor check would have
        // let committed entries be overwritten.
        let mut log =
            ReplicatedLog::new(mac(2), vec![mac(0), mac(1), mac(2)], ReplicaRole::Follower);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 1));
        log.note_commit(2);
        assert!(!log.grant_vote(5, 1), "candidate misses committed entry 2");
        assert!(log.grant_vote(5, 2));
    }

    #[test]
    fn store_never_overwrites_committed_prefix() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        log.store(entry_at(1, 1));
        log.store(entry_at(2, 1));
        log.note_commit(2);
        // A higher-term copy may not displace a committed entry.
        let usurper = LogEntry {
            version: 99,
            ..entry_at(2, 4)
        };
        assert!(!log.store(usurper));
        assert_eq!(log.entry(2).unwrap().version, 2);
        // Above the watermark the higher-term overwrite still applies.
        log.store(entry_at(3, 1));
        let fresh = LogEntry {
            version: 7,
            ..entry_at(3, 4)
        };
        assert!(log.store(fresh));
        assert_eq!(log.entry(3).unwrap().version, 7);
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

    #[test]
    fn gap_detection_tracks_contiguity() {
        let mut log = ReplicatedLog::new(mac(1), vec![mac(0), mac(1)], ReplicaRole::Follower);
        assert_eq!(log.highest_contiguous(), 0);
        assert!(!log.has_gap());
        log.store(entry_at(1, 1));
        // Entry 2 was lost in flight; 3 arrives.
        log.store(entry_at(3, 1));
        assert_eq!(log.highest_contiguous(), 1);
        assert!(log.has_gap());
        // Re-sync fills the hole.
        log.store(entry_at(2, 1));
        assert_eq!(log.highest_contiguous(), 3);
        assert!(!log.has_gap());
    }

    #[test]
    fn unacked_worklist_shrinks_with_acks() {
        let mut log = ReplicatedLog::new(mac(0), vec![mac(0), mac(1), mac(2)], ReplicaRole::Leader);
        let e1 = log.append(1, delta());
        let e2 = log.append(2, delta());
        assert_eq!(log.unacked_for(mac(1)), vec![1, 2]);
        log.ack(e1.index, mac(1));
        assert_eq!(log.unacked_for(mac(1)), vec![2]);
        assert_eq!(log.unacked_for(mac(2)), vec![1, 2]);
        log.ack(e2.index, mac(1));
        assert!(log.unacked_for(mac(1)).is_empty());
        assert!(log.entry(1).is_some());
        assert!(log.entry(9).is_none());
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
                    log_floor: 0,
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
