//! The gray-failure half of stage 2 (§4.2; DESIGN.md §10.3), pure.
//!
//! [`GrayBoard`] weighs the hosts' `LinkSuspect` evidence per edge and
//! decides when the leader quarantines an edge, releases it, or
//! re-asserts the quarantine set. Same calling convention as the
//! consensus core: `now` comes in, [`Effect`]s go out to a caller-owned
//! buffer, and what the log says is read off the [`Replica`]. The
//! [`Controller`](crate::node::Controller) node is the adapter; what the
//! log commits it floods itself (DESIGN.md §9).

use std::collections::BTreeMap;

use dumbnet_types::{MacAddr, SimDuration, SimTime, SwitchId};

use crate::replication::Replica;

/// A normalized (undirected) switch pair.
pub type Edge = (SwitchId, SwitchId);

/// Distinct reporting hosts required to corroborate an edge before it
/// is quarantined. A host's walks localize loss to one edge only when
/// some walk separates it from the others: every walk of a host starts
/// on its own access link, so that link's loss looks the same as loss
/// on each first-hop trunk the walks share with it. A second host's
/// walks do not share that access link.
const GRAY_QUORUM: usize = 2;

/// Reports at or below this loss (permille) count as clean
/// (exoneration evidence) rather than dirty.
const CLEAR_LOSS_PERMILLE: u16 = 50;

/// Consecutive clean probation ticks required before a quarantined edge
/// is released — the hysteresis that prevents patch-storm oscillation.
const CLEAN_STREAK: u32 = 3;

/// Quarantine entries per edge before it is pinned sticky: no more
/// automatic release until a hard link event resets the edge.
pub const MAX_FLAPS: u32 = 3;

/// How long a dirty report stays on the scoreboard without renewal.
/// A reporter whose witness paths all cross some *other* dead edge
/// can neither renew its accusation nor vouch clean — its stale
/// evidence must decay or the edge stays quarantined forever.
const EVIDENCE_TTL: SimDuration = SimDuration::from_millis(50);

/// While any edge is quarantined, the leader re-asserts the full
/// quarantine set as a fresh patch epoch at this cadence. Patch floods
/// are at-most-once and hosts skip missed epochs, so quarantine is
/// deliberately *soft state*: it must be refreshed or the hosts let it
/// decay ([`EVIDENCE_TTL`] is the scoreboard analog, the host
/// detector's `CTRL_QUARANTINE_TTL` the host side).
const REFRESH_INTERVAL: SimDuration = SimDuration::from_millis(60);

/// What one step of the scoreboard asks of its adapter.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A fresh report entered the scoreboard.
    Accepted,
    /// Propose a delta that quarantines (`true`) or releases the edge.
    Mark(Edge, bool),
    /// Propose a delta re-asserting the whole quarantine set.
    Refresh(Vec<Edge>),
}

/// Suspicion scoreboard entry for one normalized switch edge.
#[derive(Debug, Default, Clone)]
struct EdgeSuspicion {
    /// Latest dirty evidence per reporter: `(loss permille, when)`.
    reporters: BTreeMap<MacAddr, (u16, SimTime)>,
    /// Highest report sequence seen per reporter; stale or reordered
    /// reports below the fence are ignored.
    last_seq: BTreeMap<MacAddr, u64>,
    /// Consecutive probation ticks with no live accuser.
    clean_streak: u32,
    /// Times this edge entered quarantine (flap audit).
    flaps: u32,
    /// Exceeded the flap budget: held in quarantine until a hard link
    /// event resets the edge.
    sticky: bool,
}

/// The scoreboard: per-edge evidence plus when the quarantine set was
/// last asserted as a patch epoch.
#[derive(Debug, Clone, Default)]
pub struct GrayBoard {
    edges: BTreeMap<Edge, EdgeSuspicion>,
    last_refresh: SimTime,
}

impl GrayBoard {
    /// Per-edge quarantine flap counts (the bounded-flap invariant).
    #[must_use]
    pub fn flaps(&self) -> Vec<(Edge, u32)> {
        self.edges.iter().map(|(e, b)| (*e, b.flaps)).collect()
    }

    /// Hard link state supersedes suspicion: `edge` went down, or came
    /// back from down, and sheds its entry.
    pub fn forget(&mut self, edge: Edge) {
        self.edges.remove(&edge);
    }

    /// One report about a known, link-up `edge` (normalized). Evidence
    /// is always recorded; the edge is quarantined once `GRAY_QUORUM`
    /// distinct reporters accuse it — but only under the lease: a
    /// leader without recent quorum contact may be a partitioned
    /// minority's, and the log never truncates a divergent suffix.
    /// Clean reports retire the reporter's accusation.
    pub fn on_report(
        &mut self,
        now: SimTime,
        replica: &Replica,
        (reporter, seq): (MacAddr, u64),
        edge: Edge,
        loss_permille: u16,
        out: &mut Vec<Effect>,
    ) {
        let board = self.edges.entry(edge).or_default();
        let last = board.last_seq.entry(reporter).or_insert(0);
        if seq <= *last {
            return; // Replayed or reordered report.
        }
        *last = seq;
        out.push(Effect::Accepted);
        if loss_permille <= CLEAR_LOSS_PERMILLE {
            board.reporters.remove(&reporter);
            return;
        }
        board.clean_streak = 0;
        board.reporters.insert(reporter, (loss_permille, now));
        let corroborated = board.reporters.len() >= GRAY_QUORUM;
        if corroborated && replica.may_mutate(now) && !replica.quarantined().contains(&edge) {
            board.flaps += 1;
            board.sticky |= board.flaps > MAX_FLAPS;
            self.last_refresh = now;
            out.push(Effect::Mark(edge, true));
        }
    }

    /// Probation tick. Under the lease only — a partitioned stale
    /// leader must not decay evidence into releases that diverge from
    /// the authoritative log — dirty evidence older than
    /// `EVIDENCE_TTL` decays, every quarantined edge with no live
    /// accuser grows its clean streak, and the edges whose streak
    /// reached `CLEAN_STREAK` are released, sticky ones excepted.
    /// When nothing was released and the set has not been asserted for
    /// `REFRESH_INTERVAL`, it is re-asserted whole.
    pub fn on_probation(&mut self, now: SimTime, replica: &Replica, out: &mut Vec<Effect>) {
        if !replica.may_mutate(now) {
            return;
        }
        for board in self.edges.values_mut() {
            board
                .reporters
                .retain(|_, &mut (_, at)| now - at <= EVIDENCE_TTL);
        }
        let before = out.len();
        let held = replica.quarantined();
        for &edge in &held {
            // `entry`, not a lookup: a leader elected mid-quarantine
            // inherits the quarantine set but an empty scoreboard, and
            // must still be able to release what it inherited.
            let board = self.edges.entry(edge).or_default();
            if !board.reporters.is_empty() {
                board.clean_streak = 0;
                continue;
            }
            board.clean_streak = board.clean_streak.saturating_add(1);
            if !board.sticky && board.clean_streak >= CLEAN_STREAK {
                // Re-quarantining needs fresh corroboration; releasing
                // again needs a fresh streak.
                board.clean_streak = 0;
                out.push(Effect::Mark(edge, false));
            }
        }
        if out.len() > before {
            self.last_refresh = now;
        } else if !held.is_empty() && now - self.last_refresh >= REFRESH_INTERVAL {
            self.last_refresh = now;
            out.push(Effect::Refresh(held.into_iter().collect()));
        }
    }
}
