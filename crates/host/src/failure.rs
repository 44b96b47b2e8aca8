//! The host's failure path as pure cores (§4.2; DESIGN.md §9.3, §10.2).
//!
//! [`PatchAcceptor`] decides which stage-2 patch batches reach the
//! two-level cache, [`GrayDetector`] turns probe outcomes into edge
//! suspicion, [`RequestRetry`] decides when a cache miss asks which
//! controller (§5.2). All follow the calling convention of the
//! controller's consensus core: every entry point takes what it needs
//! to know (the time, the table version, the [`PathTable`] as data) and
//! appends [`Effect`]s to a caller-owned buffer. None reads a clock,
//! draws randomness, sends a packet or bumps a counter —
//! [`HostAgent`](crate::agent::HostAgent) is their adapter and applies
//! the effects in emission order.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use dumbnet_packet::control::{PatchBatch, PatchEntry};
use dumbnet_packet::{ControlMessage, Packet};
use dumbnet_types::{heap, norm_edge, FastHashMap, MacAddr, Path, SimDuration, SimTime, SwitchId};

use crate::backlog::Backlog;
use crate::pathtable::{CachedPath, PathTable};

/// A normalized (undirected) switch pair.
pub type Edge = (SwitchId, SwitchId);

/// What one step of a host core asks of its adapter.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A controller update carried a term below the highest seen: its
    /// sender is a fenced stale leader and the update was discarded.
    Fenced,
    /// A batch at or below the table version (a redundant flood round,
    /// a jitter-reordered older patch) or a straggler segment of an
    /// epoch a newer assembly supersedes was discarded.
    Stale,
    /// A partial multi-segment assembly was abandoned.
    Aborted,
    /// Move the table to `epoch` in one step: `entries` are the ones
    /// above the table version, in ascending version order.
    Apply {
        /// Table version after applying.
        epoch: u64,
        /// The entries to apply.
        entries: Vec<PatchEntry>,
    },
    /// A probe went unanswered (one loss sample).
    ProbeLost,
    /// This host's own evidence now holds `edge`: a local gray failover.
    Failover(Edge),
    /// Whether anything holds `edge` may have changed; recompute it.
    Settle(Edge),
    /// Send the primary controller this `LinkSuspect` evidence report.
    Report(ControlMessage),
    /// Launch this `PathProbe` along the cached path under test.
    Probe(Packet),
    /// Run the next detector round this long from now.
    Arm(SimDuration),
    /// Send this controller (over this path) a `PathRequest` for the
    /// destination under the request id.
    Request((MacAddr, Path), MacAddr, u64),
    /// Run the path-request retry sweep this long from now.
    Retry(SimDuration),
}

/// Segments of one multi-frame epoch, buffered until the set is complete.
#[derive(Debug, Clone)]
struct Assembly {
    epoch: u64,
    term: u64,
    /// Per-segment entry lists, indexed by segment number.
    parts: Vec<Option<Vec<PatchEntry>>>,
    got: usize,
}

/// The coalescing writer's acceptance rules (§4.2 stage 2, receive
/// side), in order: term fence, monotone epochs, whole-epoch assembly
/// with only the newest epoch kept. The table never reflects half a
/// batch: what passes leaves as one [`Effect::Apply`].
#[derive(Debug, Clone, Default)]
pub struct PatchAcceptor {
    /// Highest leadership term heard from any controller.
    leader_term: u64,
    assembly: Option<Assembly>,
}

impl PatchAcceptor {
    /// The heap a batch under assembly holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.assembly.as_ref().map_or(0, |a| {
            let parts: usize = a.parts.iter().flatten().map(heap::vec).sum();
            heap::vec(&a.parts) + parts
        })
    }

    /// The term fence every leader-stamped update passes (patch batches
    /// and leader hellos alike): `false`, with [`Effect::Fenced`], for a
    /// term below the highest seen.
    pub fn admit_term(&mut self, term: u64, out: &mut Vec<Effect>) -> bool {
        if term < self.leader_term {
            out.push(Effect::Fenced);
            return false;
        }
        self.leader_term = term;
        true
    }

    /// Judges one batch frame against a table at version `held`.
    pub fn on_batch(&mut self, held: u64, batch: PatchBatch, out: &mut Vec<Effect>) {
        if !self.admit_term(batch.term, out) {
            return;
        }
        if batch.epoch <= held {
            out.push(Effect::Stale);
            return;
        }
        let (seg, segs) = (usize::from(batch.seg), usize::from(batch.segs.max(1)));
        if segs == 1 {
            return self.complete(held, batch.epoch, batch.entries, out);
        }
        if seg >= segs {
            return; // Malformed segment index (the codec rejects it on the wire).
        }
        match &self.assembly {
            // A newer epoch is already assembling.
            Some(asm) if asm.epoch > batch.epoch => return out.push(Effect::Stale),
            // Superseded or inconsistently framed partial: start over.
            Some(asm)
                if asm.epoch < batch.epoch || asm.term != batch.term || asm.parts.len() != segs =>
            {
                out.push(Effect::Aborted);
                self.assembly = None;
            }
            _ => {}
        }
        let asm = self.assembly.get_or_insert_with(|| Assembly {
            epoch: batch.epoch,
            term: batch.term,
            parts: vec![None; segs],
            got: 0,
        });
        if asm.parts[seg].is_none() {
            asm.parts[seg] = Some(batch.entries);
            asm.got += 1;
        }
        if asm.got == segs {
            let parts = self.assembly.take().map_or(Vec::new(), |asm| asm.parts);
            let entries = parts.into_iter().flatten().flatten().collect();
            self.complete(held, batch.epoch, entries, out);
        }
    }

    /// Hands over one complete epoch. Entries at or below `held` are
    /// dropped — re-applying them could resurrect link state a version
    /// in between has since overwritten — and a partial at or below
    /// `epoch` is abandoned: its stragglers can only be stale.
    fn complete(
        &mut self,
        held: u64,
        epoch: u64,
        mut entries: Vec<PatchEntry>,
        out: &mut Vec<Effect>,
    ) {
        if self.assembly.as_ref().is_some_and(|a| a.epoch <= epoch) {
            out.push(Effect::Aborted);
            self.assembly = None;
        }
        entries.retain(|e| e.version > held);
        entries.sort_by_key(|e| e.version);
        out.push(Effect::Apply { epoch, entries });
    }
}

/// How long a PathReply may take before its request is presumed lost
/// (replies can be lost during partitions; seed value).
const PATH_REQUEST_RETRY: SimDuration = SimDuration::from_millis(50);

/// When a cache miss asks which controller (§5.2): packets without a
/// path park per destination, at most one request per destination is
/// owed an answer, and every controller heard from is asked in turn.
#[derive(Debug, Default)]
pub struct RequestRetry {
    /// The leader whose hello passed the term fence.
    primary: Option<(MacAddr, Path)>,
    /// Every controller heard from, the primary included.
    group: Vec<(MacAddr, Path)>,
    next: u32,
    pending: FastHashMap<MacAddr, Backlog>,
    /// Request id → (destination, sent time).
    outstanding: FastHashMap<u64, (MacAddr, SimTime)>,
    last_request_id: u64,
    /// Whether the sweep timer is armed.
    armed: bool,
}

impl RequestRetry {
    /// The heap the core holds: the controller group, the parked
    /// packets and the requests in flight.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let parked: usize = self.pending.values().map(Backlog::heap_bytes).sum();
        heap::vec(&self.group)
            + heap::hash_map(&self.pending)
            + parked
            + heap::hash_map(&self.outstanding)
    }

    /// The primary controller, once known.
    #[must_use]
    pub fn primary(&self) -> Option<&(MacAddr, Path)> {
        self.primary.as_ref()
    }

    /// `pkt` (from this host) has no path: park it and ask for one.
    pub fn on_miss(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Effect>) {
        let dst = pkt.dst;
        self.pending.entry(dst).or_default().push(dst, pkt.src, pkt);
        self.ask(now, dst, out);
        self.arm(out);
    }

    /// Asks the next controller for `dst`, unless a request is owed.
    pub fn ask(&mut self, now: SimTime, dst: MacAddr, out: &mut Vec<Effect>) {
        self.outstanding
            .retain(|_, &mut (d, at)| d != dst || now - at < PATH_REQUEST_RETRY);
        if self.group.is_empty() || self.outstanding.values().any(|&(d, _)| d == dst) {
            return;
        }
        let to = self.group[self.next as usize % self.group.len()].clone();
        self.next = self.next.wrapping_add(1);
        self.last_request_id += 1;
        self.outstanding.insert(self.last_request_id, (dst, now));
        out.push(Effect::Request(to, dst, self.last_request_id));
    }

    fn arm(&mut self, out: &mut Vec<Effect>) {
        if !self.armed && !self.pending.is_empty() {
            self.armed = true;
            out.push(Effect::Retry(PATH_REQUEST_RETRY));
        }
    }

    /// A reply arrived: the destination it answers, or `None` if its
    /// request is gone (answered, or re-asked since).
    pub fn on_reply(&mut self, request_id: u64) -> Option<MacAddr> {
        self.outstanding.remove(&request_id).map(|(dst, _)| dst)
    }

    /// A controller announced itself: a leader (`primary`, past the term
    /// fence) becomes the primary, any joins the group under its newest
    /// path, and every parked destination is asked for, ascending.
    pub fn on_hello(
        &mut self,
        now: SimTime,
        (controller, path): (MacAddr, Path),
        primary: bool,
        out: &mut Vec<Effect>,
    ) {
        if primary {
            self.primary = Some((controller, path.clone()));
        }
        self.group.retain(|(m, _)| *m != controller);
        self.group.push((controller, path));
        for dst in self.parked() {
            self.ask(now, dst, out);
        }
    }

    /// The sweep timer fired: the parked destinations, ascending, for
    /// the adapter to re-resolve and ask for again if still parked.
    pub fn on_sweep(&mut self) -> Vec<MacAddr> {
        self.armed = false;
        self.parked()
    }

    fn parked(&self) -> Vec<MacAddr> {
        let mut dsts: Vec<MacAddr> = self.pending.keys().copied().collect();
        dsts.sort_unstable(); // Hash order would be nondeterministic.
        dsts
    }

    /// Hands `dst`'s parked packets to the adapter to resolve.
    pub(crate) fn take(&mut self, dst: MacAddr) -> Option<Backlog> {
        self.pending.remove(&dst)
    }

    /// Parks again what the adapter still could not route, if anything.
    pub(crate) fn park(&mut self, dst: MacAddr, backlog: Backlog, out: &mut Vec<Effect>) -> bool {
        let parked = !backlog.is_empty();
        if parked {
            self.pending.insert(dst, backlog);
            self.arm(out);
        }
        parked
    }
}

/// A probe unanswered for this long counts as a loss sample (under the
/// default 5 ms round, so each sweep judges the round before).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(4);

/// EWMA smoothing factor for per-path loss (sample weight).
const EWMA_ALPHA: f64 = 0.4;

/// EWMA loss at or below this exonerates a held edge. The gap to
/// [`GrayDetectConfig::suspect_threshold`] is the hysteresis: health
/// must really recover before the edge is forgiven.
pub(crate) const CLEAR_THRESHOLD: f64 = 0.05;

/// Minimum gap between successive reports for the same edge.
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Controller-flooded quarantine not re-asserted within this window
/// lapses. Quarantine is soft state: patch floods are at-most-once and
/// hosts skip missed epochs, so a release can be lost forever — the
/// leader re-asserts the live set periodically (four of its refresh
/// rounds fit here) and silence means release.
const CTRL_QUARANTINE_TTL: SimDuration = SimDuration::from_millis(250);

/// Gray-failure detection knobs (DESIGN.md §10). `None` in
/// [`HostAgentConfig::gray_detect`](crate::HostAgentConfig) means no
/// detector at all — no probes, no health state, no timers.
#[derive(Debug, Clone, Copy)]
pub struct GrayDetectConfig {
    /// Gap between detector rounds (every round probes every cached
    /// path of every destination and sweeps the round before).
    pub probe_interval: SimDuration,
    /// EWMA loss at or above this suspects the path's distinct edges.
    pub suspect_threshold: f64,
    /// Minimum samples before the EWMA is trusted either way.
    pub min_samples: u32,
}

impl Default for GrayDetectConfig {
    fn default() -> GrayDetectConfig {
        GrayDetectConfig {
            probe_interval: SimDuration::from_millis(5),
            suspect_threshold: 0.3,
            min_samples: 4,
        }
    }
}

/// Per-path loss EWMA, keyed by `(destination, path index)`.
#[derive(Debug, Clone, Copy, Default)]
struct PathHealth {
    ewma_loss: f64,
    samples: u32,
}

/// Evidence about one edge: `(EWMA loss, samples, direction)` of the
/// worst path seen crossing it.
type Evidence = (f64, u32, u8);

/// Keeps the worse of `ev` and what `map` already holds for `edge`.
fn note(map: &mut BTreeMap<Edge, Evidence>, edge: Edge, ev: Evidence) {
    let slot = map.entry(edge).or_insert(ev);
    if ev.0 > slot.0 {
        *slot = ev;
    }
}

/// The edges of `p` with the direction it crosses each in.
fn edges(p: &CachedPath) -> impl Iterator<Item = (Edge, u8)> + '_ {
    p.route.switches().windows(2).map(|w| {
        let edge = norm_edge(w[0], w[1]);
        (edge, u8::from(edge != (w[0], w[1])))
    })
}

/// The gray-failure detector: a probe ledger, the per-path loss EWMA it
/// feeds, and every reason this host has to avoid an edge that is still
/// link-up — its own evidence (`local`) and the controller's flooded
/// quarantine (`ctrl`, soft state with a TTL). The union of the two is
/// [`GrayDetector::holds`]; the adapter mirrors it into the PathTable.
#[derive(Debug, Clone)]
pub struct GrayDetector {
    me: MacAddr,
    cfg: GrayDetectConfig,
    health: HashMap<(MacAddr, usize), PathHealth>,
    /// Outstanding probes: id → (destination, path index, sent time).
    ledger: HashMap<u64, (MacAddr, usize, SimTime)>,
    next_probe_id: u64,
    local: BTreeSet<Edge>,
    /// Controller quarantine, by when it was last (re-)asserted.
    ctrl: BTreeMap<Edge, SimTime>,
    /// Last report time per edge (rate limit).
    reported: BTreeMap<Edge, SimTime>,
    next_seq: u64,
}

impl GrayDetector {
    /// The heap the detector holds: path health, the probe ledger and
    /// the edge sets.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        heap::hash_map(&self.health)
            + heap::hash_map(&self.ledger)
            + heap::btree_set(&self.local)
            + heap::btree_map(&self.ctrl)
            + heap::btree_map(&self.reported)
    }

    /// The detector of host `me`, nothing sampled and nothing held.
    #[must_use]
    pub fn new(me: MacAddr, cfg: GrayDetectConfig) -> GrayDetector {
        GrayDetector {
            me,
            cfg,
            health: HashMap::new(),
            ledger: HashMap::new(),
            next_probe_id: 1,
            local: BTreeSet::new(),
            ctrl: BTreeMap::new(),
            reported: BTreeMap::new(),
            next_seq: 1,
        }
    }

    /// Whether local evidence or the controller holds `edge`.
    #[must_use]
    pub fn holds(&self, edge: Edge) -> bool {
        self.local.contains(&edge) || self.ctrl.contains_key(&edge)
    }

    /// Every held edge (`local ∪ controller`), ascending.
    #[must_use]
    pub fn held(&self) -> BTreeSet<Edge> {
        self.local.iter().chain(self.ctrl.keys()).copied().collect()
    }

    /// The controller's word on `edge`: quarantined (or re-asserted so),
    /// or pardoned — local evidence may still hold it.
    pub fn on_verdict(&mut self, now: SimTime, edge: Edge, quarantined: bool) {
        if quarantined {
            self.ctrl.insert(edge, now);
        } else {
            self.ctrl.remove(&edge);
        }
    }

    /// `edge` went hard-down: link state supersedes suspicion.
    pub fn forget_edge(&mut self, edge: Edge) {
        self.local.remove(&edge);
        self.ctrl.remove(&edge);
        self.reported.remove(&edge);
    }

    /// The path set of `dst` changed, and with it the index keying:
    /// old samples would misattribute.
    pub fn forget_dst(&mut self, dst: MacAddr) {
        self.health.retain(|&(d, _), _| d != dst);
        self.ledger.retain(|_, &mut (d, _, _)| d != dst);
    }

    /// A probe reply arrived: a clean sample, if the probe is still owed.
    pub fn on_reply(&mut self, probe_id: u64) {
        if let Some((dst, ix, _)) = self.ledger.remove(&probe_id) {
            self.sample(dst, ix, false);
        }
    }

    fn sample(&mut self, dst: MacAddr, ix: usize, lost: bool) {
        let h = self.health.entry((dst, ix)).or_default();
        let sample = f64::from(u8::from(lost));
        h.ewma_loss = if h.samples == 0 {
            sample
        } else {
            h.ewma_loss * (1.0 - EWMA_ALPHA) + sample * EWMA_ALPHA
        };
        h.samples = h.samples.saturating_add(1);
    }

    /// One detector round over the host's `table`: lapse controller
    /// quarantine the leader stopped refreshing, sweep the round before
    /// into loss samples, judge every edge, then probe every cached
    /// primary path. `can_report` says a controller is known to send
    /// evidence to.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        table: &PathTable,
        can_report: bool,
        out: &mut Vec<Effect>,
    ) {
        self.ctrl.retain(|&edge, &mut at| {
            let fresh = now - at <= CTRL_QUARANTINE_TTL;
            if !fresh {
                out.push(Effect::Settle(edge));
            }
            fresh
        });
        let mut expired = Vec::new();
        self.ledger.retain(|&id, &mut (dst, ix, at)| {
            let owed = now - at < PROBE_TIMEOUT;
            if !owed {
                expired.push((id, dst, ix));
            }
            owed
        });
        expired.sort_unstable(); // Hash order must not reach the EWMA.
        for (_, dst, ix) in expired {
            out.push(Effect::ProbeLost);
            self.sample(dst, ix, true);
        }
        self.judge(now, table, can_report, out);
        for dst in table.destinations().into_iter().filter(|&d| d != self.me) {
            let paths = table.entry(dst).map_or(&[][..], |e| &e.paths);
            for (ix, p) in paths.iter().enumerate() {
                let (origin, probe_id) = (self.me, self.next_probe_id);
                self.next_probe_id += 1;
                self.ledger.insert(probe_id, (dst, ix, now));
                let msg = ControlMessage::PathProbe { origin, probe_id };
                out.push(Effect::Probe(Packet::control(
                    dst,
                    origin,
                    p.tags.clone(),
                    msg,
                )));
            }
        }
        out.push(Effect::Arm(self.cfg.probe_interval));
    }

    /// The suspicion logic. A path whose EWMA crossed the threshold
    /// implicates its edges, minus every edge a demonstrably healthy
    /// path of the same destination also crosses. One gray edge poisons
    /// every path over it, so the edges *all* bad paths share are the
    /// suspects (common cause); only when they share nothing usable —
    /// distinct causes, or the shared edges are all healthy — the blunt
    /// union stands in. Suspects are held locally at once (failover
    /// before any controller round-trip) and reported. A held edge that
    /// is no longer suspect and whose worst sampled EWMA is back under
    /// [`CLEAR_THRESHOLD`] is released locally and reported clean, so
    /// controller probation can corroborate; in between, nothing moves.
    fn judge(&mut self, now: SimTime, table: &PathTable, can_report: bool, out: &mut Vec<Effect>) {
        // BTreeMaps: iteration order feeds sends.
        let mut worst: BTreeMap<Edge, Evidence> = BTreeMap::new();
        let mut suspects: BTreeMap<Edge, Evidence> = BTreeMap::new();
        for dst in table.destinations() {
            let Some(entry) = table.entry(dst) else {
                continue;
            };
            let path_edges = |ix: usize| edges(&entry.paths[ix]).map(|(e, _)| e);
            let mut good: HashSet<Edge> = HashSet::new();
            let mut bad: Vec<(usize, PathHealth)> = Vec::new();
            for (ix, p) in entry.paths.iter().enumerate() {
                let Some(&h) = self.health.get(&(dst, ix)) else {
                    continue;
                };
                if h.samples < self.cfg.min_samples {
                    continue;
                }
                for (edge, dir) in edges(p) {
                    note(&mut worst, edge, (h.ewma_loss, h.samples, dir));
                }
                if h.ewma_loss >= self.cfg.suspect_threshold {
                    bad.push((ix, h));
                } else if h.ewma_loss <= CLEAR_THRESHOLD {
                    good.extend(path_edges(ix));
                }
            }
            let per_path = bad.iter().map(|&(ix, _)| path_edges(ix).collect());
            let common: HashSet<Edge> = per_path.reduce(|a, b| &a & &b).unwrap_or_default();
            let use_common = common.iter().any(|e| !good.contains(e));
            for (ix, h) in bad {
                for (edge, dir) in edges(&entry.paths[ix]) {
                    if !good.contains(&edge) && (!use_common || common.contains(&edge)) {
                        note(&mut suspects, edge, (h.ewma_loss, h.samples, dir));
                    }
                }
            }
        }
        for (&edge, &evidence) in &suspects {
            if self.local.insert(edge) {
                out.push(Effect::Failover(edge));
            }
            self.report(now, edge, evidence, can_report, out);
        }
        for edge in self.held() {
            let clean = worst.get(&edge).filter(|ev| ev.0 <= CLEAR_THRESHOLD);
            if let (false, Some(&evidence)) = (suspects.contains_key(&edge), clean) {
                if self.local.remove(&edge) {
                    out.push(Effect::Settle(edge));
                }
                self.report(now, edge, evidence, can_report, out);
            }
        }
    }

    /// One rate-limited evidence report.
    fn report(
        &mut self,
        now: SimTime,
        edge: Edge,
        (loss, window, direction): Evidence,
        can_report: bool,
        out: &mut Vec<Effect>,
    ) {
        let recent = |&t: &SimTime| now - t < REPORT_INTERVAL;
        if !can_report || self.reported.get(&edge).is_some_and(recent) {
            return;
        }
        self.reported.insert(edge, now);
        let loss_permille = (loss * 1000.0).round().min(1000.0) as u16;
        out.push(Effect::Report(ControlMessage::LinkSuspect {
            reporter: self.me,
            edge,
            loss_permille,
            window,
            direction,
            seq: self.next_seq,
        }));
        self.next_seq += 1;
    }
}
