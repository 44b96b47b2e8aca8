//! The host's failure path as pure cores (§4.2; DESIGN.md §9.3, §10.2).
//!
//! [`PatchAcceptor`] decides which stage-2 patch batches reach the
//! two-level cache and owns the table version they move,
//! [`GrayDetector`] turns probe outcomes into edge suspicion,
//! [`RequestRetry`] decides when a cache miss asks which controller
//! (§5.2). All follow the calling convention of the controller's
//! consensus core: every entry point takes what it needs to know (the
//! time, the cached walks) as data and appends [`Effect`]s to a
//! caller-owned buffer. None reads a clock,
//! draws randomness, sends a packet or bumps a counter —
//! [`HostAgent`](crate::agent::HostAgent) is their adapter and applies
//! the effects in emission order.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dumbnet_packet::control::{PatchBatch, PatchEntry};
use dumbnet_packet::{ControlMessage, Packet};
use dumbnet_types::{heap, norm_edge, FastHashMap, MacAddr, Path, SimDuration, SimTime, SwitchId};

use crate::backlog::Backlog;

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
    /// above the old table version, in ascending version order.
    Apply {
        /// Table version after applying (the acceptor already holds it).
        epoch: u64,
        /// The entries to apply.
        entries: Vec<PatchEntry>,
    },
    /// A probe went unanswered (one loss sample).
    ProbeLost,
    /// This host's own evidence now holds `edge`: a local gray failover.
    Failover(Edge),
    /// The detector released `edge`, or the controller's hold on it
    /// lapsed: the held set shrank.
    Settle(Edge),
    /// Send the primary controller this `LinkSuspect` evidence report.
    Report(ControlMessage),
    /// Send `PathProbe` `probe_id` on the closed walk out over these
    /// hops and back.
    Probe(Vec<SwitchId>, u64),
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
/// batch: what passes leaves as one [`Effect::Apply`], and only that
/// moves the table version.
#[derive(Debug, Clone, Default)]
pub struct PatchAcceptor {
    /// Highest leadership term heard from any controller.
    leader_term: u64,
    /// The table version: the epoch of the last [`Effect::Apply`].
    version: u64,
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

    /// The table version: the epoch of the last batch handed over.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
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

    /// Judges one batch frame against the table version.
    pub fn on_batch(&mut self, batch: PatchBatch, out: &mut Vec<Effect>) {
        if !self.admit_term(batch.term, out) {
            return;
        }
        if batch.epoch <= self.version {
            out.push(Effect::Stale);
            return;
        }
        let (seg, segs) = (usize::from(batch.seg), usize::from(batch.segs.max(1)));
        if segs == 1 {
            return self.complete(batch.epoch, batch.entries, out);
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
            self.complete(batch.epoch, entries, out);
        }
    }

    /// Hands over one complete epoch, which becomes the table version.
    /// Entries at or below the old version are dropped — re-applying
    /// them could resurrect link state a version in between has since
    /// overwritten — and a partial at or below `epoch` is abandoned: its
    /// stragglers can only be stale.
    fn complete(&mut self, epoch: u64, mut entries: Vec<PatchEntry>, out: &mut Vec<Effect>) {
        if self.assembly.as_ref().is_some_and(|a| a.epoch <= epoch) {
            out.push(Effect::Aborted);
            self.assembly = None;
        }
        entries.retain(|e| e.version > self.version);
        entries.sort_by_key(|e| e.version);
        self.version = epoch;
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

/// EWMA weight of one sample of a walk's loss.
const EWMA_ALPHA: f64 = 0.2;

/// A held edge whose attributed loss is at or below this is released.
/// The gap to [`GrayDetectConfig::suspect_threshold`] is the
/// hysteresis: the loss must really be gone before the edge is.
pub(crate) const CLEAR_THRESHOLD: f64 = 0.05;

/// Minimum gap between renewals of a held edge's report.
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Controller-flooded quarantine not re-asserted within this window
/// lapses. Quarantine is soft state: patch floods are at-most-once and
/// hosts skip missed epochs, so a release can be lost forever — the
/// leader re-asserts the live set periodically (four of its refresh
/// rounds fit here) and silence means release.
const CTRL_QUARANTINE_TTL: SimDuration = SimDuration::from_millis(250);

/// Gray-failure detection knobs (DESIGN.md §10). `None` in
/// [`HostAgentConfig::gray_detect`](crate::HostAgentConfig) means no
/// detector at all — no probes, no walk state, no timers.
#[derive(Debug, Clone, Copy)]
pub struct GrayDetectConfig {
    /// Gap between detector rounds (each sweeps the round before and
    /// sends one probe per cached walk).
    pub probe_interval: SimDuration,
    /// An edge whose own loss rate reaches this while it tops the vote
    /// is blamed.
    pub suspect_threshold: f64,
    /// Samples a walk needs before it votes.
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

/// The distinct edges a walk out over `hops` crosses (each twice).
fn edges(hops: &[SwitchId]) -> impl Iterator<Item = Edge> + '_ {
    hops.windows(2).map(|w| norm_edge(w[0], w[1]))
}

/// The gray-failure detector: a probe ledger, the loss rate of every
/// walk it probes, and the edges this host avoids though they are
/// link-up — its own evidence (`local`, each with the walk kept across
/// it) and the controller's quarantine (`ctrl`, soft state with a TTL),
/// whose union is [`GrayDetector::held`]. A walk is named by its hops,
/// this host's switch first; its probe is NetBouncer's bounce probe
/// (Tan et al., NSDI 2019): out over the hops and back over the same
/// links, so the prober answers itself and the edge set is exact.
#[derive(Debug, Clone)]
pub struct GrayDetector {
    me: MacAddr,
    cfg: GrayDetectConfig,
    /// Loss EWMA and samples of every walk of the probe set.
    rates: BTreeMap<Vec<SwitchId>, (f64, u32)>,
    /// Outstanding probes: id → (walk, sent time).
    ledger: HashMap<u64, (Vec<SwitchId>, SimTime)>,
    next_probe_id: u64,
    /// Rounds run: whose turn it is among the cached walks.
    rounds: usize,
    /// This host's own holds, each with the walk kept across it.
    local: BTreeMap<Edge, Vec<SwitchId>>,
    /// Controller quarantine, by when it was last (re-)asserted.
    ctrl: BTreeMap<Edge, SimTime>,
    /// Last report time per edge (rate limit).
    reported: BTreeMap<Edge, SimTime>,
    next_seq: u64,
}

impl GrayDetector {
    /// The heap the detector holds: the walks and their rates, the
    /// probe ledger and the edge sets.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let walks = self.rates.keys().chain(self.local.values());
        let walks = walks.chain(self.ledger.values().map(|(hops, _)| hops));
        heap::btree_map(&self.rates)
            + heap::hash_map(&self.ledger)
            + heap::btree_map(&self.local)
            + heap::btree_map(&self.ctrl)
            + heap::btree_map(&self.reported)
            + walks.map(heap::vec).sum::<usize>()
    }

    /// The detector of host `me`, nothing sampled and nothing held.
    #[must_use]
    pub fn new(me: MacAddr, cfg: GrayDetectConfig) -> GrayDetector {
        GrayDetector {
            me,
            cfg,
            rates: BTreeMap::new(),
            ledger: HashMap::new(),
            next_probe_id: 1,
            rounds: 0,
            local: BTreeMap::new(),
            ctrl: BTreeMap::new(),
            reported: BTreeMap::new(),
            next_seq: 1,
        }
    }

    /// Every held edge (`local ∪ controller`), ascending.
    #[must_use]
    pub fn held(&self) -> BTreeSet<Edge> {
        self.local.keys().chain(self.ctrl.keys()).copied().collect()
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

    /// A probe came back to this host: a clean sample of its walk, if
    /// the probe is still owed.
    pub fn on_reply(&mut self, probe_id: u64) {
        if let Some((hops, _)) = self.ledger.remove(&probe_id) {
            self.sample(&hops, false);
        }
    }

    fn sample(&mut self, hops: &[SwitchId], lost: bool) {
        let Some((loss, samples)) = self.rates.get_mut(hops) else {
            return; // The walk left the probe set while its probe was out.
        };
        let sample = f64::from(u8::from(lost));
        *loss = if *samples == 0 {
            sample
        } else {
            *loss * (1.0 - EWMA_ALPHA) + sample * EWMA_ALPHA
        };
        *samples = samples.saturating_add(1);
    }

    /// One detector round: lapse controller quarantine the leader
    /// stopped refreshing, sweep the round before into loss samples,
    /// judge every edge, then probe: the walk kept across each locally
    /// held edge, and the cached `walks` in the slots left — one probe
    /// per cached walk and round in all, taken in turn. A walk with no
    /// edge measures nothing. `can_report` says a controller is known to
    /// send evidence to.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        walks: Vec<Vec<SwitchId>>,
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
        self.ledger.retain(|&id, (hops, at)| {
            let owed = now - *at < PROBE_TIMEOUT;
            if !owed {
                expired.push((id, std::mem::take(hops)));
            }
            owed
        });
        expired.sort_unstable(); // Hash order must not reach the EWMA.
        for (_, hops) in expired {
            out.push(Effect::ProbeLost);
            self.sample(&hops, true);
        }
        self.judge(now, can_report, out);
        let kept: BTreeSet<Vec<SwitchId>> = self.local.values().cloned().collect();
        let fresh = |h: &Vec<SwitchId>| h.len() > 1 && !kept.contains(h);
        let cached: BTreeSet<Vec<SwitchId>> = walks.into_iter().filter(fresh).collect();
        self.rates
            .retain(|h, _| kept.contains(h) || cached.contains(h));
        let room = cached
            .len()
            .saturating_sub(kept.len())
            .max(1)
            .min(cached.len());
        let turn = cached
            .iter()
            .cycle()
            .skip(self.rounds % cached.len().max(1));
        self.rounds += 1;
        for hops in kept.iter().chain(turn.take(room)) {
            self.rates.entry(hops.clone()).or_default();
            self.ledger.insert(self.next_probe_id, (hops.clone(), now));
            out.push(Effect::Probe(hops.clone(), self.next_probe_id));
            self.next_probe_id += 1;
        }
        out.push(Effect::Arm(self.cfg.probe_interval));
    }

    /// 007's vote (Arzani et al., NSDI 2018; DESIGN.md §10.2) over the
    /// walks with `min_samples`: each gives its loss, split evenly, to
    /// its edges. The most-voted edge is blamed if its own rate (the
    /// least loss of a walk over it) reaches the threshold and it is not
    /// tied, and the walks it explains stop voting; repeat. Held at once,
    /// a blamed edge keeps its worst walk's prefix turning at its far
    /// end. Every other held edge is judged on its own rate over the
    /// walks no other blame explains: released at most
    /// [`CLEAR_THRESHOLD`], else its report is renewed.
    fn judge(&mut self, now: SimTime, can_report: bool, out: &mut Vec<Effect>) {
        let min = self.cfg.min_samples;
        let walks: Vec<(&Vec<SwitchId>, f64)> = self
            .rates
            .iter()
            .filter(|(_, &(_, n))| n >= min)
            .map(|(hops, &(loss, _))| (hops, loss))
            .collect();
        let local = |e: &&Edge| self.local.contains_key(*e);
        let mut explainers: BTreeSet<Edge> =
            self.ctrl.keys().filter(|e| !local(e)).copied().collect();
        let explained = |h: &[SwitchId], by: &BTreeSet<Edge>| edges(h).any(|e| by.contains(&e));
        let mut blamed = Vec::new();
        loop {
            // Edge → (votes, least loss of a walk over it, its worst walk).
            let mut tally: BTreeMap<Edge, (f64, f64, usize)> = BTreeMap::new();
            let open = walks
                .iter()
                .enumerate()
                .filter(|(_, (h, _))| !explained(h, &explainers));
            for (ix, &(hops, loss)) in open {
                for edge in edges(hops) {
                    let t = tally.entry(edge).or_insert((0.0, 1.0, ix));
                    let worst = if loss > walks[t.2].1 { ix } else { t.2 };
                    *t = (t.0 + loss / (hops.len() - 1) as f64, t.1.min(loss), worst);
                }
            }
            let rank = |a: &(f64, f64, usize), b: &(f64, f64, usize)| {
                a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
            };
            let mut ranked: Vec<_> = tally.into_iter().collect();
            ranked.sort_by(|a, b| rank(&a.1, &b.1));
            let (edge, (_, loss, worst)) = match ranked[..] {
                [.., (_, a), (_, b)] if rank(&a, &b).is_eq() => break,
                [.., top] if top.1 .1 >= self.cfg.suspect_threshold => top,
                _ => break,
            };
            let hops = walks[worst].0;
            let turn = 1 + edges(hops).position(|e| e == edge).unwrap_or(0);
            blamed.push((edge, loss, hops[..=turn].to_vec()));
            explainers.insert(edge);
        }
        let sampled: Vec<(Edge, f64)> = self
            .local
            .keys()
            .filter(|e| !explainers.contains(e))
            .filter_map(|&edge| {
                let others = |e: Edge| e != edge && explainers.contains(&e);
                let own = walks
                    .iter()
                    .filter(|(h, _)| edges(h).any(|e| e == edge) && !edges(h).any(others));
                // No walk over it that no other blame explains: no sample.
                Some((edge, own.map(|&(_, loss)| loss).reduce(f64::min)?))
            })
            .collect();
        for (edge, loss, walk) in blamed {
            let renewal = self.local.insert(edge, walk).is_some();
            if !renewal {
                out.push(Effect::Failover(edge));
            }
            self.report(now, edge, loss, renewal, can_report, out);
        }
        for (edge, loss) in sampled {
            let lapsed = loss <= CLEAR_THRESHOLD;
            if lapsed {
                self.local.remove(&edge);
                out.push(Effect::Settle(edge));
            }
            self.report(now, edge, loss, !lapsed, can_report, out);
        }
    }

    /// One evidence report; a renewal only if the edge's last report is
    /// [`REPORT_INTERVAL`] old.
    fn report(
        &mut self,
        now: SimTime,
        edge: Edge,
        loss: f64,
        renewal: bool,
        can_report: bool,
        out: &mut Vec<Effect>,
    ) {
        let recent = |&t: &SimTime| now - t < REPORT_INTERVAL;
        if !can_report || renewal && self.reported.get(&edge).is_some_and(recent) {
            return;
        }
        self.reported.insert(edge, now);
        let loss_permille = (loss * 1000.0).round().min(1000.0) as u16;
        out.push(Effect::Report(ControlMessage::LinkSuspect {
            reporter: self.me,
            edge,
            loss_permille,
            seq: self.next_seq,
        }));
        self.next_seq += 1;
    }
}
