//! The topology-discovery state machine (§4.1).
//!
//! Breadth-first search from a single host using only dumb switches:
//!
//! 1. **Self bounce** — probe `p-ø` for every `p`; the probe that comes
//!    back names the controller's own switch port.
//! 2. **Own switch ID** — probe `0-m-ø` (`m` = own port).
//! 3. **Link scan** — for each known switch `S` (reached by tags `fwd`,
//!    returning by tags `ret`) and each port pair `(p, q)`, probe
//!    `fwd·p·0·q·ret`. A `SwitchIdReply` bounce names the neighbor
//!    behind `p` and a candidate return port `q`.
//! 4. **Link verify** — ambiguity resolution: probe `fwd·p·q·0·ret`.
//!    The queried switch must be `S` itself, proving `neighbor.q`
//!    really connects back to `S` (the paper's §4.1 "verify" packets).
//! 5. **Host scan** — ports that turned out not to be links are probed
//!    with `fwd·p·ret`; a host there sees the remaining tags `ret` and
//!    replies along them.
//!
//! The state machine is pure: callers pump probes out with
//! [`DiscoveryState::next_probe`], feed replies back in, and expire
//! timeouts. Scan jobs are cursors, so the O(N·P²) probe volumes of
//! Figure 8 are generated lazily, and memory is O(live probes): one
//! 24-byte record per question awaiting a reply or a resend, plus a
//! 4-byte index entry and an 8-byte deadline entry per probe ID from the
//! oldest live probe to the newest. That span is at most window ×
//! longest backoff ÷ pump tick — 16 × 400 ms ÷ 33 µs ≈ 194 k IDs for
//! the benchmark's 64-port fat tree. No path is stored: a retransmission
//! rebuilds its path from the question and the switch's `fwd`/`ret`
//! tags, which never change once the switch is reached.

use std::collections::{BTreeMap, VecDeque};

use dumbnet_types::{
    heap, DumbNetError, FastHashMap, MacAddr, Path, PortNo, Result, SimDuration, SimTime, SwitchId,
    Tag,
};

use dumbnet_topology::Topology;

/// Discovery tunables.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Highest port number to probe ("we can pass the maximum number of
    /// ports to discovery process as an argument").
    pub max_ports: u8,
    /// How long to wait before declaring a probe lost.
    pub timeout: SimDuration,
    /// How many times a lost probe is re-sent before being abandoned.
    /// Each attempt waits `timeout · 2^attempt` (exponent capped at 6),
    /// so transient loss slows discovery instead of corrupting it.
    /// Zero restores fire-and-forget probing.
    pub max_retries: u32,
    /// Optional prior topology for *verify mode* (§4.1): "with some
    /// prior knowledge about the topology, during bootstrapping the
    /// hosts can quickly verify (instead of discover) all links". Link
    /// scans then probe only the hinted port pairs — O(L) probes instead
    /// of O(N·P²) — while host scans still sweep every port, so moved or
    /// added hosts are found and wrong hinted links simply fail their
    /// verify probes. Links absent from the hint are not found; that is
    /// the documented trade of verify mode.
    pub hint: Option<Topology>,
}

impl Default for DiscoveryConfig {
    fn default() -> DiscoveryConfig {
        DiscoveryConfig::blind()
    }
}

impl DiscoveryConfig {
    /// The blind-discovery default: 64-port probing, 50 ms timeout.
    #[must_use]
    pub fn blind() -> DiscoveryConfig {
        DiscoveryConfig {
            max_ports: 64,
            timeout: SimDuration::from_millis(50),
            max_retries: 3,
            hint: None,
        }
    }

    /// Verify mode against a prior map.
    #[must_use]
    pub fn verify(hint: Topology) -> DiscoveryConfig {
        DiscoveryConfig {
            hint: Some(hint),
            ..DiscoveryConfig::blind()
        }
    }
}

/// A probe the caller must transmit: the header path plus the probe ID
/// to put in the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOut {
    /// Correlation ID (echoed back in replies).
    pub probe_id: u64,
    /// The tag path for the probe packet.
    pub path: Path,
}

/// What a probe was trying to learn. `from` and `neighbor` are switch
/// indices into [`DiscoveryState`]'s interned switch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeKind {
    SelfBounce {
        port: PortNo,
    },
    OwnSwitchId,
    LinkScan {
        from: u32,
        out_port: PortNo,
        ret_guess: PortNo,
    },
    LinkVerify {
        from: u32,
        out_port: PortNo,
        neighbor: u32,
        neighbor_port: PortNo,
    },
    HostScan {
        from: u32,
        port: PortNo,
    },
}

/// One open question: in flight under its current probe ID, or timed
/// out and waiting in `retries` for its resend.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// When the current attempt times out.
    deadline: SimTime,
    /// Retransmissions so far (0 for a first send).
    attempts: u32,
    kind: ProbeKind,
}

/// A slab slot: a record, or a link in the free list.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Taken(Record),
    /// Free; `next` is the next free slot (`NO_SLOT` ends the list).
    Free {
        next: u32,
    },
}

/// Empty index entry and free-list terminator.
const NO_SLOT: u32 = u32::MAX;

// The free-list link fits beside the record's kind tag: a slot costs
// what its record does.
const _: () = assert!(std::mem::size_of::<Slot>() == 24);

/// The probe ledger: one record per open question and an index from
/// live probe IDs to records.
///
/// Records live in a slab whose free slots are threaded into a list, so
/// the slab's length is the peak number of open questions. Probe IDs
/// come from a monotone counter, so the live IDs at any instant lie in
/// one window: `index[id - base]` holds the slot of probe `id`, or
/// `NO_SLOT` once it was answered or expired. Emptied head entries
/// advance `base`, so the index spans from the oldest live probe to the
/// newest — bounded by the longest backoff, not the run length — and its
/// front entry is always live. Every timed-out probe leaves the index, so
/// its live entries number sent − answered − expired, re-queued probes
/// among the expired; one that will be re-sent keeps its record, and the
/// resend binds a fresh ID to the same slot.
#[derive(Debug)]
struct OutstandingTable {
    slab: Vec<Slot>,
    /// Head of the free list (`NO_SLOT` when every slot is taken).
    free: u32,
    base: u64,
    index: VecDeque<u32>,
}

impl OutstandingTable {
    fn new() -> OutstandingTable {
        OutstandingTable {
            slab: Vec::new(),
            free: NO_SLOT,
            base: 0,
            index: VecDeque::new(),
        }
    }

    /// Stores a new question's record; returns its slot.
    fn alloc(&mut self, rec: Record) -> u32 {
        if self.free == NO_SLOT {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NO_SLOT)
                .expect("fewer than 2^32 - 1 open probes");
            self.slab.push(Slot::Taken(rec));
            return slot;
        }
        let slot = self.free;
        let Slot::Free { next } = self.slab[slot as usize] else {
            unreachable!("free list links only free slots");
        };
        self.free = next;
        self.slab[slot as usize] = Slot::Taken(rec);
        slot
    }

    /// Closes a question: frees its slot and returns its record.
    fn release(&mut self, slot: u32) -> Record {
        let next = self.free;
        let Slot::Taken(rec) =
            std::mem::replace(&mut self.slab[slot as usize], Slot::Free { next })
        else {
            unreachable!("released slot holds a record");
        };
        self.free = slot;
        rec
    }

    fn record(&self, slot: u32) -> &Record {
        match &self.slab[slot as usize] {
            Slot::Taken(rec) => rec,
            Slot::Free { .. } => unreachable!("indexed slot holds a record"),
        }
    }

    fn record_mut(&mut self, slot: u32) -> &mut Record {
        match &mut self.slab[slot as usize] {
            Slot::Taken(rec) => rec,
            Slot::Free { .. } => unreachable!("indexed slot holds a record"),
        }
    }

    /// Makes `slot` the record of probe `id`, which must be exactly one
    /// past the highest ID ever bound (the caller's counter guarantees
    /// it).
    fn bind(&mut self, id: u64, slot: u32) {
        if self.index.is_empty() {
            self.base = id;
        }
        debug_assert_eq!(id, self.base + self.index.len() as u64);
        self.index.push_back(slot);
    }

    /// The slot of live probe `id`.
    fn slot_of(&self, id: u64) -> Option<u32> {
        let ix = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.index.get(ix).copied().filter(|&s| s != NO_SLOT)
    }

    /// Takes probe `id` out of the index; its record stays in its slot.
    fn unbind(&mut self, id: u64) -> Option<u32> {
        let ix = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let entry = self.index.get_mut(ix)?;
        if *entry == NO_SLOT {
            return None;
        }
        let slot = std::mem::replace(entry, NO_SLOT);
        while self.index.front() == Some(&NO_SLOT) {
            self.index.pop_front();
            self.base += 1;
        }
        Some(slot)
    }

    /// Closes the question of live probe `id` (it was answered).
    fn remove(&mut self, id: u64) -> Option<Record> {
        let slot = self.unbind(id)?;
        Some(self.release(slot))
    }

    /// When live probe `id` times out.
    fn deadline_of(&self, id: u64) -> Option<SimTime> {
        self.slot_of(id).map(|slot| self.record(slot).deadline)
    }

    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Number of distinct retry-backoff classes (attempts are capped at 6
/// when computing the timeout multiplier, so 0..=6).
const BACKOFF_CLASSES: usize = 7;

/// Expansion progress for one switch.
#[derive(Debug, Clone)]
struct SwitchProgress {
    id: SwitchId,
    /// Whether a verified route to the switch is known. A switch that a
    /// link scan named is interned before its verify passes (probes
    /// carry the index), and is not part of the map until then.
    reached: bool,
    fwd: Vec<Tag>,
    ret: Vec<Tag>,
    /// Outstanding stage-1 (scan + verify) probes.
    stage1_outstanding: usize,
    /// Stage-1 jobs (link scans / verifies) still queued for this switch.
    stage1_jobs: usize,
    /// Whether host scans were issued yet.
    hosts_scanned: bool,
    /// Ports confirmed as links (S-side).
    link_ports: BTreeMap<PortNo, (SwitchId, PortNo)>,
    /// Hosts found: port → MAC.
    host_ports: BTreeMap<PortNo, MacAddr>,
}

impl SwitchProgress {
    fn named(id: SwitchId) -> SwitchProgress {
        SwitchProgress {
            id,
            reached: false,
            fwd: Vec::new(),
            ret: Vec::new(),
            stage1_outstanding: 0,
            stage1_jobs: 0,
            hosts_scanned: false,
            link_ports: BTreeMap::new(),
            host_ports: BTreeMap::new(),
        }
    }
}

/// Lazily generated batch of probes for one switch expansion. Switches
/// are indices into the interned switch table.
#[derive(Debug, Clone)]
enum ScanJob {
    /// Self bounce over all ports.
    SelfBounce { next: u8 },
    /// Own switch ID query.
    OwnId,
    /// Stage 1: all (p, q) pairs for a switch.
    LinkScan { switch: u32, p: u8, q: u8 },
    /// Stage 1, verify mode: only the hinted (p, q) pairs. `end` is a
    /// cursor over the hint's link ends (two per link, `a` end first).
    LinkScanHinted { switch: u32, end: usize },
    /// A single verification probe.
    Verify {
        switch: u32,
        out_port: PortNo,
        neighbor: u32,
        neighbor_port: PortNo,
    },
    /// Stage 2: hosts on the non-link ports.
    HostScan { switch: u32, next: u8 },
}

/// The discovery state machine.
#[derive(Debug)]
pub struct DiscoveryState {
    mac: MacAddr,
    config: DiscoveryConfig,
    /// The port on the attach switch that leads to this host.
    own_port: Option<PortNo>,
    /// Every switch the fabric has named, in the order first named. The
    /// first is the prober's own switch: every other name comes from a
    /// scan, and scans start there.
    switches: Vec<SwitchProgress>,
    /// Switch ID → index into `switches`.
    switch_ix: FastHashMap<SwitchId, u32>,
    jobs: VecDeque<ScanJob>,
    outstanding: OutstandingTable,
    /// Probe IDs, bucketed by backoff class; the deadline is read from
    /// the record. Emission times are monotone and every probe in a
    /// class shares the same timeout, so each queue is sorted by ID and
    /// by deadline alike; answered probes are skipped lazily. Keeps
    /// [`DiscoveryState::expire`] and [`DiscoveryState::next_deadline`]
    /// amortized O(1) per probe instead of O(outstanding) per call.
    deadlines: [VecDeque<u64>; BACKOFF_CLASSES],
    /// Slots of timed-out probes waiting to be re-sent (drained before
    /// jobs).
    retries: VecDeque<u32>,
    next_probe_id: u64,
    probes_sent: u64,
    retries_sent: u64,
    probes_abandoned: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
}

impl DiscoveryState {
    /// The heap the state machine holds: the per-switch progress, the
    /// job queue, the probe ledger and the verify-mode hint.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let switches: usize = self
            .switches
            .iter()
            .map(|s| {
                heap::vec(&s.fwd)
                    + heap::vec(&s.ret)
                    + heap::btree_map(&s.link_ports)
                    + heap::btree_map(&s.host_ports)
            })
            .sum();
        let deadlines: usize = self.deadlines.iter().map(heap::deque).sum();
        let ledger = heap::vec(&self.outstanding.slab) + heap::deque(&self.outstanding.index);
        heap::vec(&self.switches)
            + switches
            + heap::hash_map(&self.switch_ix)
            + heap::deque(&self.jobs)
            + ledger
            + deadlines
            + heap::deque(&self.retries)
            + self.config.hint.as_ref().map_or(0, Topology::heap_bytes)
    }

    /// Creates a fresh state machine for the prober with address `mac`.
    #[must_use]
    pub fn new(mac: MacAddr, config: DiscoveryConfig) -> DiscoveryState {
        let mut jobs = VecDeque::new();
        jobs.push_back(ScanJob::SelfBounce { next: 1 });
        DiscoveryState {
            mac,
            config,
            own_port: None,
            switches: Vec::new(),
            switch_ix: FastHashMap::default(),
            jobs,
            outstanding: OutstandingTable::new(),
            deadlines: Default::default(),
            retries: VecDeque::new(),
            next_probe_id: 1,
            probes_sent: 0,
            retries_sent: 0,
            probes_abandoned: 0,
            started_at: None,
            finished_at: None,
        }
    }

    /// The prober's MAC.
    #[must_use]
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Total probes transmitted so far (the Figure 8 cost metric),
    /// retransmissions included.
    #[must_use]
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Retransmissions among [`DiscoveryState::probes_sent`].
    #[must_use]
    pub fn retries_sent(&self) -> u64 {
        self.retries_sent
    }

    /// Probes given up on after exhausting their retry budget.
    #[must_use]
    pub fn probes_abandoned(&self) -> u64 {
        self.probes_abandoned
    }

    /// When discovery quiesced, if it has.
    #[must_use]
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// When the first probe went out.
    #[must_use]
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Produces the next probe to transmit, if any is ready.
    /// Retransmissions of timed-out probes take priority over fresh
    /// scan jobs: finishing in-flight questions keeps the stage-1
    /// ledger draining under loss.
    pub fn next_probe(&mut self, now: SimTime) -> Option<ProbeOut> {
        if let Some(slot) = self.retries.pop_front() {
            self.retries_sent += 1;
            let kind = self.outstanding.record(slot).kind;
            let path = self.path_of(kind).expect("a sent probe's path rebuilds");
            return Some(self.send(now, slot, path));
        }
        loop {
            let job = self.jobs.front_mut()?;
            let kind = match job {
                ScanJob::SelfBounce { next } => {
                    if *next > self.config.max_ports {
                        self.jobs.pop_front();
                        continue;
                    }
                    let port = PortNo::new(*next).expect("1..=max_ports valid");
                    *next += 1;
                    ProbeKind::SelfBounce { port }
                }
                ScanJob::OwnId => {
                    self.jobs.pop_front();
                    ProbeKind::OwnSwitchId
                }
                ScanJob::LinkScan { switch, p, q } => {
                    let max = self.config.max_ports;
                    if *p > max {
                        let sw = *switch;
                        self.jobs.pop_front();
                        self.retire_stage1_job(sw);
                        continue;
                    }
                    let (sw, pp, qq) = (*switch, *p, *q);
                    // Advance cursors.
                    if *q >= max {
                        *q = 1;
                        *p += 1;
                    } else {
                        *q += 1;
                    }
                    ProbeKind::LinkScan {
                        from: sw,
                        out_port: PortNo::new(pp).expect("valid"),
                        ret_guess: PortNo::new(qq).expect("valid"),
                    }
                }
                ScanJob::LinkScanHinted { switch, end } => {
                    let sw = *switch;
                    let id = self.switches[sw as usize].id;
                    let hint = self
                        .config
                        .hint
                        .as_ref()
                        .expect("hinted scans run in verify mode");
                    // The switch's hinted (out_port, far_port) pairs are
                    // its ends among the hint's links, in link order.
                    let next = (*end..2 * hint.link_count()).find_map(|e| {
                        let l = hint.links().nth(e / 2).expect("e < 2 · links");
                        let (near, far) = if e % 2 == 0 { (l.a, l.b) } else { (l.b, l.a) };
                        (near.switch == id).then_some((e, near.port, far.port))
                    });
                    let Some((e, out_port, ret_guess)) = next else {
                        self.jobs.pop_front();
                        self.retire_stage1_job(sw);
                        continue;
                    };
                    *end = e + 1;
                    ProbeKind::LinkScan {
                        from: sw,
                        out_port,
                        ret_guess,
                    }
                }
                ScanJob::Verify {
                    switch,
                    out_port,
                    neighbor,
                    neighbor_port,
                } => {
                    let kind = ProbeKind::LinkVerify {
                        from: *switch,
                        out_port: *out_port,
                        neighbor: *neighbor,
                        neighbor_port: *neighbor_port,
                    };
                    self.jobs.pop_front();
                    kind
                }
                ScanJob::HostScan { switch, next } => {
                    if *next > self.config.max_ports {
                        self.jobs.pop_front();
                        continue;
                    }
                    let (sw, port) = (*switch, PortNo::new(*next).expect("valid"));
                    *next += 1;
                    // Skip ports already known to be links.
                    if self.switches[sw as usize].link_ports.contains_key(&port) {
                        continue;
                    }
                    ProbeKind::HostScan { from: sw, port }
                }
            };
            let Some(path) = self.path_of(kind) else {
                // Too deep to probe; skip. A verify job leaves the
                // stage-1 ledger with it.
                if let ProbeKind::LinkVerify { from, .. } = kind {
                    self.retire_stage1_job(from);
                }
                continue;
            };
            match kind {
                ProbeKind::LinkScan { from, .. } => {
                    self.switches[from as usize].stage1_outstanding += 1;
                }
                ProbeKind::LinkVerify { from, .. } => {
                    // The probe replaces the job in the stage-1 ledger.
                    let prog = &mut self.switches[from as usize];
                    prog.stage1_outstanding += 1;
                    prog.stage1_jobs = prog.stage1_jobs.saturating_sub(1);
                }
                ProbeKind::SelfBounce { .. }
                | ProbeKind::OwnSwitchId
                | ProbeKind::HostScan { .. } => {}
            }
            let slot = self.outstanding.alloc(Record {
                deadline: now,
                attempts: 0,
                kind,
            });
            return Some(self.send(now, slot, path));
        }
    }

    /// The tag path that asks `kind`'s question: the same on every
    /// attempt, since a reached switch's `fwd`/`ret` never change and
    /// neither does the own port once known. `None` when the path is too
    /// deep to probe.
    fn path_of(&self, kind: ProbeKind) -> Option<Path> {
        let via = |sw: u32, hop: &[Tag]| {
            let prog = &self.switches[sw as usize];
            // Chained iterators feed the path's inline buffer directly:
            // no per-probe Vec in the hottest loop.
            let tags = (prog.fwd.iter().copied())
                .chain(hop.iter().copied())
                .chain(prog.ret.iter().copied());
            Path::from_tags(tags).ok()
        };
        match kind {
            ProbeKind::SelfBounce { port } => Path::from_port_nos([port]).ok(),
            ProbeKind::OwnSwitchId => {
                let own = self.own_port.expect("OwnId queued after bounce");
                Path::from_tags([Tag::ID_QUERY, Tag::from_port(own)]).ok()
            }
            ProbeKind::LinkScan {
                from,
                out_port,
                ret_guess,
            } => via(
                from,
                &[
                    Tag::from_port(out_port),
                    Tag::ID_QUERY,
                    Tag::from_port(ret_guess),
                ],
            ),
            ProbeKind::LinkVerify {
                from,
                out_port,
                neighbor_port,
                ..
            } => via(
                from,
                &[
                    Tag::from_port(out_port),
                    Tag::from_port(neighbor_port),
                    Tag::ID_QUERY,
                ],
            ),
            ProbeKind::HostScan { from, port } => via(from, &[Tag::from_port(port)]),
        }
    }

    /// Queues the stage-1 link scan for a newly reached switch: hinted
    /// pairs in verify mode, the full (p, q) grid otherwise.
    fn push_link_scan(&mut self, switch: u32) {
        if self.config.hint.is_some() {
            self.jobs
                .push_back(ScanJob::LinkScanHinted { switch, end: 0 });
        } else {
            self.jobs
                .push_back(ScanJob::LinkScan { switch, p: 1, q: 1 });
        }
    }

    /// Sends the question in `slot` under a fresh probe ID.
    fn send(&mut self, now: SimTime, slot: u32, path: Path) -> ProbeOut {
        let probe_id = self.next_probe_id;
        self.next_probe_id += 1;
        self.probes_sent += 1;
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        // Exponential backoff: 1×, 2×, 4×, … the base timeout, capped.
        let rec = self.outstanding.record_mut(slot);
        let class = rec.attempts.min(6);
        let wait =
            SimDuration::from_nanos(self.config.timeout.nanos().saturating_mul(1u64 << class));
        rec.deadline = now + wait;
        self.deadlines[class as usize].push_back(probe_id);
        self.outstanding.bind(probe_id, slot);
        ProbeOut { probe_id, path }
    }

    /// The index of switch `id`, interning it on first sight.
    fn intern(&mut self, id: SwitchId) -> u32 {
        let switches = &mut self.switches;
        *self.switch_ix.entry(id).or_insert_with(|| {
            let ix = u32::try_from(switches.len()).expect("fewer than 2^32 switches");
            switches.push(SwitchProgress::named(id));
            ix
        })
    }

    /// Records the verified route to switch `ix` and queues its
    /// expansion.
    fn reach(&mut self, ix: u32, fwd: Vec<Tag>, ret: Vec<Tag>) {
        let prog = &mut self.switches[ix as usize];
        *prog = SwitchProgress {
            reached: true,
            fwd,
            ret,
            stage1_jobs: 1,
            ..SwitchProgress::named(prog.id)
        };
        self.push_link_scan(ix);
    }

    /// Feeds back a `SwitchIdReply` whose echoed probe carried
    /// `probe_id`.
    pub fn on_switch_id(&mut self, probe_id: u64, switch: SwitchId, _now: SimTime) {
        let Some(rec) = self.outstanding.remove(probe_id) else {
            return;
        };
        match rec.kind {
            ProbeKind::OwnSwitchId => {
                // The bounce normally completes before the ID query is
                // queued; a reply surviving a crash window (or a forged
                // echo) could arrive without it. Drop rather than abort.
                let Some(own) = self.own_port else {
                    return;
                };
                let ix = self.intern(switch);
                self.reach(ix, Vec::new(), vec![Tag::from_port(own)]);
            }
            ProbeKind::LinkScan {
                from,
                out_port,
                ret_guess,
            } => {
                // Candidate link: verify it (ambiguous identity
                // resolution, §4.1). Skip if we already confirmed a link
                // on this port. The verify job is queued *before* the
                // probe is retired so host scans cannot slip in between.
                if !self.switches[from as usize]
                    .link_ports
                    .contains_key(&out_port)
                {
                    let neighbor = self.intern(switch);
                    self.switches[from as usize].stage1_jobs += 1;
                    self.jobs.push_back(ScanJob::Verify {
                        switch: from,
                        out_port,
                        neighbor,
                        neighbor_port: ret_guess,
                    });
                }
                self.finish_stage1_probe(from);
            }
            ProbeKind::LinkVerify {
                from,
                out_port,
                neighbor,
                neighbor_port,
            } => {
                // The verify passes iff the switch answering is `from`
                // itself: the reply really did re-enter through
                // `neighbor_port`. Record before retiring the probe so
                // host scans never race the link table.
                if switch != self.switches[from as usize].id {
                    self.finish_stage1_probe(from);
                    return;
                }
                let nb = &self.switches[neighbor as usize];
                let (nb_id, nb_reached) = (nb.id, nb.reached);
                let prog = &mut self.switches[from as usize];
                prog.link_ports
                    .entry(out_port)
                    .or_insert((nb_id, neighbor_port));
                // First sighting of the neighbor: enqueue its expansion.
                if !nb_reached {
                    let mut fwd = prog.fwd.clone();
                    fwd.push(Tag::from_port(out_port));
                    let mut ret = vec![Tag::from_port(neighbor_port)];
                    ret.extend(prog.ret.iter().copied());
                    self.reach(neighbor, fwd, ret);
                }
                self.finish_stage1_probe(from);
            }
            ProbeKind::SelfBounce { .. } | ProbeKind::HostScan { .. } => {}
        }
    }

    /// Feeds back a probe bounce to ourselves or a host's
    /// `ProbeReply`.
    pub fn on_probe_reply(&mut self, probe_id: u64, responder: MacAddr, _now: SimTime) {
        let Some(rec) = self.outstanding.remove(probe_id) else {
            return;
        };
        match rec.kind {
            ProbeKind::SelfBounce { port } => {
                if responder == self.mac && self.own_port.is_none() {
                    self.own_port = Some(port);
                    self.jobs.push_back(ScanJob::OwnId);
                    // Stop wasting probes on the remaining bounce ports:
                    // drop the pending SelfBounce job.
                    if matches!(self.jobs.front(), Some(ScanJob::SelfBounce { .. })) {
                        self.jobs.pop_front();
                    }
                }
            }
            ProbeKind::HostScan { from, port } => {
                self.switches[from as usize]
                    .host_ports
                    .entry(port)
                    .or_insert(responder);
            }
            ProbeKind::LinkScan { from, .. } | ProbeKind::LinkVerify { from, .. } => {
                // A host answered a link-shaped probe: the probe wandered
                // through a host-attached port. Treat as a miss.
                self.finish_stage1_probe(from);
            }
            ProbeKind::OwnSwitchId => {}
        }
    }

    /// Expires timed-out probes and returns how many there were — the
    /// count includes the probes re-queued for retransmission, not only
    /// the abandoned ones. A probe whose question is still open and
    /// whose retry budget is not exhausted keeps its record and is
    /// re-sent, under a fresh ID, by the next
    /// [`DiscoveryState::next_probe`] call; a retried stage-1 probe stays
    /// on its switch's ledger until the final attempt dies, so host scans
    /// cannot start early. Allocates nothing.
    pub fn expire(&mut self, now: SimTime) -> usize {
        // Retry in probe-ID order, not class order: the re-send sequence
        // (and thus any fault-injection RNG draws) must not depend on how
        // the deadline queues interleave. Each queue is in ID order too,
        // so taking the lowest due front each time merges them in place.
        let mut due: [Option<u64>; BACKOFF_CLASSES] =
            std::array::from_fn(|class| self.due_front(class, now));
        let mut n = 0;
        while let Some((id, class)) = (due.iter().enumerate())
            .filter_map(|(class, id)| Some(((*id)?, class)))
            .min()
        {
            self.deadlines[class].pop_front();
            due[class] = self.due_front(class, now);
            n += 1;
            let slot = self.outstanding.unbind(id).expect("a due front is live");
            let rec = *self.outstanding.record(slot);
            // A probe whose answer arrived by other means is not worth
            // re-sending: bounce ports after the bounce succeeded, the
            // own-ID query once the root switch is known.
            let still_useful = match rec.kind {
                ProbeKind::SelfBounce { .. } => self.own_port.is_none(),
                ProbeKind::OwnSwitchId => self.switches.is_empty(),
                ProbeKind::LinkScan { .. }
                | ProbeKind::LinkVerify { .. }
                | ProbeKind::HostScan { .. } => true,
            };
            if still_useful && rec.attempts < self.config.max_retries {
                self.outstanding.record_mut(slot).attempts += 1;
                self.retries.push_back(slot);
                continue;
            }
            self.outstanding.release(slot);
            if still_useful {
                self.probes_abandoned += 1;
            }
            match rec.kind {
                ProbeKind::LinkScan { from, .. } | ProbeKind::LinkVerify { from, .. } => {
                    self.finish_stage1_probe(from);
                }
                ProbeKind::SelfBounce { .. }
                | ProbeKind::OwnSwitchId
                | ProbeKind::HostScan { .. } => {}
            }
        }
        n
    }

    /// Earliest outstanding deadline (for the caller's expiry timer).
    /// Drops already-answered probes off the queue fronts as a side
    /// effect, hence `&mut self`.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        (0..BACKOFF_CLASSES)
            .filter_map(|class| self.live_front(class))
            .map(|(_, deadline)| deadline)
            .min()
    }

    /// The oldest live probe of backoff class `class` and its deadline.
    /// Probes answered in the meantime have left the index; their queue
    /// entries are stale and are dropped here.
    fn live_front(&mut self, class: usize) -> Option<(u64, SimTime)> {
        let q = &mut self.deadlines[class];
        while let Some(&id) = q.front() {
            if let Some(deadline) = self.outstanding.deadline_of(id) {
                return Some((id, deadline));
            }
            q.pop_front();
        }
        None
    }

    /// The oldest live probe of class `class`, if it is due at `now`.
    fn due_front(&mut self, class: usize, now: SimTime) -> Option<u64> {
        self.live_front(class)
            .and_then(|(id, deadline)| (deadline <= now).then_some(id))
    }

    fn finish_stage1_probe(&mut self, sw: u32) {
        let prog = &mut self.switches[sw as usize];
        prog.stage1_outstanding = prog.stage1_outstanding.saturating_sub(1);
        self.maybe_host_scan(sw);
    }

    /// Retires a queued stage-1 job (without an emitted probe).
    fn retire_stage1_job(&mut self, sw: u32) {
        let prog = &mut self.switches[sw as usize];
        prog.stage1_jobs = prog.stage1_jobs.saturating_sub(1);
        self.maybe_host_scan(sw);
    }

    /// Once a switch's stage-1 probes are all resolved and no stage-1
    /// jobs for it remain queued, scan its remaining ports for hosts.
    /// O(1) per call — the ledger is maintained incrementally so the
    /// O(N·P²) probe volumes of Figure 8 stay linear overall.
    fn maybe_host_scan(&mut self, sw: u32) {
        let prog = &mut self.switches[sw as usize];
        if prog.hosts_scanned || prog.stage1_outstanding > 0 || prog.stage1_jobs > 0 {
            return;
        }
        prog.hosts_scanned = true;
        self.jobs.push_back(ScanJob::HostScan {
            switch: sw,
            next: 1,
        });
    }

    /// Whether every job, probe, and pending retransmission has
    /// resolved.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.jobs.is_empty()
            && self.outstanding.is_empty()
            && self.retries.is_empty()
            && !self.switches.is_empty()
    }

    /// Marks completion (the caller stamps quiescence time).
    pub fn mark_finished(&mut self, now: SimTime) {
        if self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }

    /// The switches with a verified route: the map's switches.
    fn reached(&self) -> impl Iterator<Item = &SwitchProgress> {
        self.switches.iter().filter(|s| s.reached)
    }

    /// Materializes the discovered topology. Factory switch IDs must be
    /// dense (`0..n`) — they are for fabrics built by this workspace.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::TopologyInvariant`] for non-dense IDs and
    /// propagates wiring errors (which would indicate discovery recorded
    /// an inconsistent structure).
    pub fn to_topology(&self) -> Result<Topology> {
        let mut found: Vec<&SwitchProgress> = self.reached().collect();
        found.sort_by_key(|s| s.id);
        if found
            .iter()
            .enumerate()
            .any(|(ix, s)| s.id.get() != ix as u64)
        {
            return Err(DumbNetError::TopologyInvariant(
                "discovered switch IDs are not dense".into(),
            ));
        }
        let mut topo = Topology::new();
        for _ in 0..found.len() {
            topo.add_switch(self.config.max_ports);
        }
        // Wire links once per unordered pair, in switch-ID order so the
        // assembled topology's link indices are run-to-run stable.
        let mut done = std::collections::HashSet::new();
        for prog in &found {
            let sw = prog.id;
            for (&port, &(nb, nport)) in &prog.link_ports {
                let key = if (sw, port) <= (nb, nport) {
                    ((sw, port), (nb, nport))
                } else {
                    ((nb, nport), (sw, port))
                };
                if done.insert(key) {
                    topo.connect(sw, port.get(), nb, nport.get())?;
                }
            }
        }
        // Hosts in MAC order for determinism.
        for (mac, sw, port) in self.hosts() {
            topo.add_host_with_mac(sw, port, mac)?;
        }
        Ok(topo)
    }

    /// MACs of all hosts discovered, with their attachment points.
    #[must_use]
    pub fn hosts(&self) -> Vec<(MacAddr, SwitchId, PortNo)> {
        let mut out = Vec::new();
        for prog in self.reached() {
            for (&port, &mac) in &prog.host_ports {
                out.push((mac, prog.id, port));
            }
        }
        out.sort();
        out
    }

    /// Number of switches discovered so far.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.reached().count()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use dumbnet_types::{HostId, PortId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn config(max_ports: u8, timeout_ms: u64) -> DiscoveryConfig {
        DiscoveryConfig {
            max_ports,
            timeout: SimDuration::from_millis(timeout_ms),
            max_retries: 3,
            hint: None,
        }
    }

    #[test]
    fn self_bounce_then_own_id() {
        let mut d = DiscoveryState::new(MacAddr::for_host(0), config(4, 10));
        // Pull the four bounce probes.
        let probes: Vec<ProbeOut> = std::iter::from_fn(|| d.next_probe(t(0))).take(4).collect();
        assert_eq!(probes.len(), 4);
        assert_eq!(probes[0].path.to_string(), "1-ø");
        assert_eq!(probes[3].path.to_string(), "4-ø");
        // Port 3 bounces back (we are on port 3).
        d.on_probe_reply(probes[2].probe_id, MacAddr::for_host(0), t(1));
        // Next probe: the own-ID query 0-3-ø.
        let id_probe = d.next_probe(t(1)).unwrap();
        assert_eq!(id_probe.path.to_string(), "0-3-ø");
        d.on_switch_id(id_probe.probe_id, SwitchId(0), t(2));
        assert_eq!(d.switch_count(), 1);
        // Link scans for the root start next.
        let scan = d.next_probe(t(2)).unwrap();
        assert_eq!(scan.path.to_string(), "1-0-1-3-ø");
    }

    /// A reply the model fabric sends back to the prober.
    #[derive(Debug, Clone, Copy)]
    enum Reply {
        SwitchId(u64, SwitchId),
        Probe(u64, MacAddr),
    }

    impl Reply {
        fn probe_id(self) -> u64 {
            match self {
                Reply::SwitchId(id, _) | Reply::Probe(id, _) => id,
            }
        }

        fn feed(self, d: &mut DiscoveryState, now: SimTime) {
            match self {
                Reply::SwitchId(id, sw) => d.on_switch_id(id, sw, now),
                Reply::Probe(id, mac) => d.on_probe_reply(id, mac, now),
            }
        }
    }

    /// Drives discovery to quiescence against a *model* answering
    /// machine built from a reference topology, mimicking what the real
    /// fabric does packet by packet (the end-to-end version runs in the
    /// core crate's integration tests). `wire` sees each probe and the
    /// reply the fabric would send, and returns what reaches the prober
    /// (`None`: lost). When idle, time jumps by `idle` and expires.
    fn drive(
        topo: &Topology,
        start_host: u64,
        d: &mut DiscoveryState,
        idle: SimDuration,
        mut wire: impl FnMut(&ProbeOut, Option<Reply>) -> Option<Reply>,
    ) {
        let mut now = SimTime::ZERO;
        let mut guard = 0u64;
        loop {
            guard += 1;
            assert!(guard < 3_000_000, "discovery did not converge");
            if let Some(probe) = d.next_probe(now) {
                if let Some(r) = wire(&probe, reply(topo, start_host, &probe)) {
                    r.feed(d, now);
                }
                now = now + SimDuration::from_micros(10);
                continue;
            }
            let expired = d.expire(now + idle);
            now = now + idle;
            if expired == 0 && d.is_done() {
                d.mark_finished(now);
                break;
            }
            if expired == 0 && d.next_probe(now).is_none() {
                // Outstanding probes with future deadlines: jump time.
                if let Some(dl) = d.next_deadline() {
                    now = dl;
                }
            }
        }
    }

    fn run_against(topo: &Topology, start_host: u64, max_ports: u8) -> DiscoveryState {
        let mac = topo.host(HostId(start_host)).unwrap().mac;
        let mut d = DiscoveryState::new(mac, config(max_ports, 10));
        drive(
            topo,
            start_host,
            &mut d,
            SimDuration::from_millis(20),
            |_, r| r,
        );
        d
    }

    /// Model fabric: walk the probe path over the topology, produce the
    /// reply the switches/hosts would.
    fn reply(topo: &Topology, start_host: u64, probe: &ProbeOut) -> Option<Reply> {
        use dumbnet_topology::graph::Attachment;
        let start = topo.host(HostId(start_host)).unwrap();
        let mut cur = start.attached.switch;
        let tags = probe.path.tags();
        for (i, &tag) in tags.iter().enumerate() {
            let rest = &tags[i + 1..];
            if tag.is_id_query() {
                // Switch replies with its ID along the remaining tags —
                // simulate that reply by continuing the walk with the
                // remaining path; if it reaches the prober, deliver.
                return walk_delivers_to(topo, cur, rest, start.mac)
                    .then_some(Reply::SwitchId(probe.probe_id, cur));
            }
            let port = tag.as_port().expect("probe tags are ports/queries");
            match topo.switch(cur).unwrap().attachment(port) {
                Some(Attachment::Link(lid)) => {
                    let link = topo.link(lid).unwrap();
                    if !link.up {
                        return None;
                    }
                    cur = link.from_switch(cur).unwrap().1.switch;
                }
                Some(Attachment::Host(h)) => {
                    let hinfo = topo.host(h).unwrap();
                    if rest.is_empty() {
                        // Probe consumed exactly at the host; a foreign
                        // host with no reply path stays silent.
                        return (hinfo.mac == start.mac)
                            .then_some(Reply::Probe(probe.probe_id, start.mac));
                    }
                    // Host replies along the remaining tags.
                    return walk_delivers_to(topo, hinfo.attached.switch, rest, start.mac)
                        .then_some(Reply::Probe(probe.probe_id, hinfo.mac));
                }
                None => return None, // Unwired port: probe lost.
            }
        }
        None
    }

    /// Whether a packet starting at `from` with `tags` reaches the host
    /// `target` exactly as its path is consumed.
    fn walk_delivers_to(topo: &Topology, from: SwitchId, tags: &[Tag], target: MacAddr) -> bool {
        use dumbnet_topology::graph::Attachment;
        let mut cur = from;
        for (ix, tag) in tags.iter().enumerate() {
            if tag.is_id_query() {
                // Nested query in a reply path: the walk would spawn yet
                // another reply; for the model, treat as non-delivery.
                return false;
            }
            let Some(port) = tag.as_port() else {
                return false;
            };
            match topo.switch(cur).unwrap().attachment(port) {
                Some(Attachment::Link(lid)) => {
                    let link = topo.link(lid).unwrap();
                    if !link.up {
                        return false;
                    }
                    cur = link.from_switch(cur).unwrap().1.switch;
                }
                Some(Attachment::Host(h)) => {
                    return ix + 1 == tags.len() && topo.host(h).unwrap().mac == target;
                }
                None => return false,
            }
        }
        false
    }

    /// A topology's links as port-exact unordered pairs.
    fn link_set(topo: &Topology) -> HashSet<(PortId, PortId)> {
        topo.links()
            .map(|l| if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) })
            .collect()
    }

    /// A topology's hosts with their attachment points, in `hosts()`
    /// order.
    fn host_set(topo: &Topology) -> Vec<(MacAddr, SwitchId, PortNo)> {
        let mut out: Vec<_> = topo
            .hosts()
            .map(|h| (h.mac, h.attached.switch, h.attached.port))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn discovers_testbed_exactly() {
        let g = dumbnet_topology::generators::testbed();
        let d = run_against(&g.topology, 0, 12);
        let found = d.to_topology().unwrap();
        assert_eq!(found.switch_count(), 7);
        assert_eq!(found.host_count(), 27);
        // Structural equality: same links, same host attachments (port
        // counts differ — probe max 12 — so compare sets).
        assert_eq!(link_set(&found), link_set(&g.topology));
        assert_eq!(d.hosts(), host_set(&g.topology));
    }

    #[test]
    fn lossy_network_discovers_exactly_with_retries() {
        // 10% deterministic probe loss: every probe whose ID is ≡ 0
        // mod 10 vanishes in flight. Capped, backed-off retries must
        // still converge on the *exact* topology — timeouts may slow
        // discovery but never corrupt it.
        let g = dumbnet_topology::generators::testbed();
        let topo = &g.topology;
        let mac = topo.host(HostId(0)).unwrap().mac;
        let mut d = DiscoveryState::new(mac, config(12, 10));
        drive(topo, 0, &mut d, SimDuration::from_millis(90), |p, r| {
            r.filter(|_| p.probe_id % 10 != 0)
        });
        assert!(d.retries_sent() > 0, "loss must have triggered retries");
        let found = d.to_topology().unwrap();
        assert_eq!(found.switch_count(), 7);
        assert_eq!(found.host_count(), 27);
        assert_eq!(
            link_set(&found),
            link_set(topo),
            "loss corrupted the discovered map"
        );
    }

    #[test]
    fn retry_budget_caps_total_probes() {
        // With nothing answering, every probe times out; the machine
        // must terminate after (1 + max_retries) attempts per question
        // rather than retrying forever.
        let mac = MacAddr::for_host(0);
        let mut d = DiscoveryState::new(
            mac,
            DiscoveryConfig {
                max_retries: 2,
                ..config(2, 1)
            },
        );
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000, "retry loop did not terminate");
            while d.next_probe(now).is_some() {}
            now = now + SimDuration::from_secs(1);
            if d.expire(now) == 0 {
                break;
            }
        }
        // 2 bounce ports × (1 first try + 2 retries) = 6 probes total.
        assert_eq!(d.probes_sent(), 6);
        assert_eq!(d.retries_sent(), 4);
        assert_eq!(d.probes_abandoned(), 2);
        assert!(!d.is_done(), "no bounce ever returned");
    }

    #[test]
    fn discovers_figure1_style_mesh() {
        // Irregular 5-switch mesh with ambiguity potential.
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..5).map(|_| t.add_switch(12)).collect();
        t.connect(s[2], 1, s[0], 1).unwrap();
        t.connect(s[2], 2, s[1], 1).unwrap();
        t.connect(s[0], 2, s[3], 1).unwrap();
        t.connect(s[1], 2, s[3], 3).unwrap();
        t.connect(s[1], 3, s[4], 1).unwrap();
        t.connect(s[3], 2, s[4], 2).unwrap();
        t.add_host(s[2], PortNo::new(9).unwrap()).unwrap(); // C3.
        t.add_host(s[0], PortNo::new(5).unwrap()).unwrap();
        t.add_host(s[4], PortNo::new(5).unwrap()).unwrap();
        let d = run_against(&t, 0, 12);
        let found = d.to_topology().unwrap();
        assert_eq!(found.switch_count(), 5);
        assert_eq!(found.host_count(), 3);
        assert_eq!(found.link_count(), 6);
        // The ambiguous S0/S1 return paths (both one hop from S2) must
        // not create phantom links.
        for l in found.links() {
            assert!(
                t.link_between(l.a.switch, l.b.switch).is_some(),
                "phantom link {} - {}",
                l.a,
                l.b
            );
        }
    }

    #[test]
    fn discovers_small_cube() {
        let g = dumbnet_topology::generators::cube(&[3, 3], 1, 8);
        let d = run_against(&g.topology, 0, 8);
        let found = d.to_topology().unwrap();
        assert_eq!(found.switch_count(), 9);
        assert_eq!(found.host_count(), 9);
        assert_eq!(found.link_count(), g.topology.link_count());
    }

    #[test]
    fn probe_count_scales_quadratically_with_ports() {
        let g = dumbnet_topology::generators::cube(&[2, 2], 1, 16);
        let d8 = run_against(&g.topology, 0, 8);
        let d16 = run_against(&g.topology, 0, 16);
        let ratio = d16.probes_sent() as f64 / d8.probes_sent() as f64;
        assert!(
            ratio > 2.5 && ratio < 4.5,
            "expected ~4× probes for 2× ports, got {ratio:.2} ({} vs {})",
            d16.probes_sent(),
            d8.probes_sent()
        );
    }

    #[test]
    fn undersized_port_budget_never_completes() {
        // The controller sits on port 9 but probes only 4 ports: the
        // self-bounce can't succeed, so discovery must not claim
        // completion (the caller's horizon handles giving up).
        let mut t = Topology::new();
        let s = t.add_switch(12);
        t.add_host(s, PortNo::new(9).unwrap()).unwrap();
        let mac = t.host(HostId(0)).unwrap().mac;
        let mut d = DiscoveryState::new(mac, config(4, 1));
        let now = SimTime::ZERO;
        while d.next_probe(now).is_some() {}
        d.expire(now + SimDuration::from_millis(10));
        assert!(!d.is_done(), "must not claim success without a bounce");
        assert!(d.to_topology().is_err() || d.switch_count() == 0);
    }

    #[test]
    fn verify_mode_skips_unhinted_pairs() {
        // In verify mode against the testbed map, stage-1 probes only
        // hinted port pairs: probe volume is O(L), not O(N·P²).
        let g = dumbnet_topology::generators::testbed();
        let blind = run_against(&g.topology, 0, 12);
        let mut hinted = DiscoveryState::new(
            g.topology.host(HostId(0)).unwrap().mac,
            DiscoveryConfig {
                hint: Some(g.topology.clone()),
                ..config(12, 10)
            },
        );
        drive(
            &g.topology,
            0,
            &mut hinted,
            SimDuration::from_millis(20),
            |_, r| r,
        );
        let found = hinted.to_topology().unwrap();
        assert_eq!(found.link_count(), g.topology.link_count());
        assert_eq!(found.host_count(), g.topology.host_count());
        assert!(
            hinted.probes_sent() * 5 < blind.probes_sent(),
            "hinted {} vs blind {}",
            hinted.probes_sent(),
            blind.probes_sent()
        );
    }

    #[test]
    fn timeout_only_network_terminates() {
        // A topology where the controller is alone on one switch.
        let mut t = Topology::new();
        let s = t.add_switch(4);
        t.add_host(s, PortNo::new(2).unwrap()).unwrap();
        let d = run_against(&t, 0, 4);
        let found = d.to_topology().unwrap();
        assert_eq!(found.switch_count(), 1);
        assert_eq!(found.host_count(), 1);
        assert_eq!(found.link_count(), 0);
    }

    #[test]
    fn sparse_switch_ids_pass_through_the_interned_table() {
        // The fabric may name its switches anything: rename the
        // testbed's switches to sparse IDs near `u64::MAX`. Discovery
        // must map the same structure under those names, and
        // `to_topology` must refuse them, as documented.
        let g = dumbnet_topology::generators::testbed();
        let sparse = |sw: SwitchId| SwitchId(u64::MAX - 1_000 * sw.get());
        let mac = g.topology.host(HostId(0)).unwrap().mac;
        let mut d = DiscoveryState::new(mac, config(12, 10));
        drive(
            &g.topology,
            0,
            &mut d,
            SimDuration::from_millis(20),
            |_, r| match r {
                Some(Reply::SwitchId(id, sw)) => Some(Reply::SwitchId(id, sparse(sw))),
                other => other,
            },
        );
        assert!(d.is_done());
        assert_eq!(d.switch_count(), 7);
        assert_eq!(d.switches.len(), 7, "every named switch was reached");
        let expect: HashSet<_> = link_set(&g.topology)
            .into_iter()
            .map(|(a, b)| end_pair((sparse(a.switch), a.port), (sparse(b.switch), b.port)))
            .collect();
        let found: HashSet<_> = d
            .switches
            .iter()
            .flat_map(|s| (s.link_ports.iter()).map(move |(&p, &far)| end_pair((s.id, p), far)))
            .collect();
        assert_eq!(found, expect);
        let mut hosts: Vec<_> = host_set(&g.topology)
            .into_iter()
            .map(|(m, sw, p)| (m, sparse(sw), p))
            .collect();
        hosts.sort();
        assert_eq!(d.hosts(), hosts);
        match d.to_topology() {
            Err(DumbNetError::TopologyInvariant(msg)) => {
                assert_eq!(msg, "discovered switch IDs are not dense");
            }
            other => panic!("sparse IDs must be refused, got {other:?}"),
        }
    }

    type End = (SwitchId, PortNo);

    /// A link's two ends as an unordered pair.
    fn end_pair(a: End, b: End) -> (End, End) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// One question as the adversary's model of the ledger sees it.
    struct Question {
        kind: ProbeKind,
        path: Path,
        /// Attempts sent so far.
        sends: u32,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The ledger under an adversary, on 3-regular random graphs like
        /// those of `discovery_is_exact_on_random_topologies` (4, 6 or 8
        /// switches of 5 ports, one host each). Each probe that
        /// is not its question's last attempt is delivered, dropped, or
        /// answered only after its deadline (a late reply to a retried
        /// ID); last attempts are always delivered. Checked after every
        /// step against a model that knows only sends, replies and
        /// deadlines:
        /// - a retransmission carries a fresh ID and the exact question
        ///   and path of that question's first send;
        /// - `expire` expires exactly the live probes past their
        ///   deadline, and the live count is sent − answered − expired;
        /// - the index spans no more than the IDs emitted since the
        ///   oldest live probe, and the slab holds one record per open
        ///   question;
        /// - at quiescence, the map equals the truth.
        #[test]
        fn ledger_is_exact_under_drop_and_delay(
            seed in 0u64..1_000,
            n in (2usize..5).prop_map(|half| 2 * half),
        ) {
            const PORTS: u8 = 5;
            const WINDOW: usize = 4;
            let timeout = SimDuration::from_millis(1);
            let tick = SimDuration::from_micros(10);
            let hop = SimDuration::from_micros(1);
            let mut rng = StdRng::seed_from_u64(seed);
            let truth = dumbnet_topology::generators::random_regular(n, 3, 1, PORTS, &mut rng)
                .topology;
            let mac = truth.host(HostId(0)).unwrap().mac;
            let cfg = DiscoveryConfig {
                timeout,
                ..config(PORTS, 1)
            };
            let max_retries = cfg.max_retries;
            let mut d = DiscoveryState::new(mac, cfg);

            let mut now = SimTime::ZERO;
            // Replies in flight, by (arrival, send order).
            let mut wire: BTreeMap<(SimTime, u64), Reply> = BTreeMap::new();
            // The model's live probes: ID → (deadline, slot).
            let mut live: BTreeMap<u64, (SimTime, u32)> = BTreeMap::new();
            let mut questions: HashMap<u32, Question> = HashMap::new();
            let mut resend: HashSet<u32> = HashSet::new();
            let (mut sent, mut answered, mut expired) = (0u64, 0u64, 0u64);
            let mut last_id = 0u64;
            for _ in 0..1_000_000 {
                // Deadlines first: a reply due now is late for a probe
                // whose deadline has passed.
                let due: Vec<u64> = live
                    .iter()
                    .filter(|(_, &(dl, _))| dl <= now)
                    .map(|(&id, _)| id)
                    .collect();
                let n_expired = d.expire(now);
                prop_assert_eq!(n_expired, due.len());
                expired += n_expired as u64;
                for id in due {
                    let (_, slot) = live.remove(&id).expect("listed");
                    if d.retries.contains(&slot) {
                        resend.insert(slot);
                    } else {
                        questions.remove(&slot);
                    }
                }
                while let Some(entry) = wire.first_entry() {
                    if entry.key().0 > now {
                        break;
                    }
                    let r = entry.remove();
                    if let Some((_, slot)) = live.remove(&r.probe_id()) {
                        answered += 1;
                        questions.remove(&slot);
                    }
                    r.feed(&mut d, now);
                }
                let mut burst = 0;
                while burst < WINDOW {
                    let Some(p) = d.next_probe(now) else { break };
                    burst += 1;
                    sent += 1;
                    prop_assert!(p.probe_id > last_id, "probe IDs are fresh");
                    last_id = p.probe_id;
                    let slot = d.outstanding.slot_of(p.probe_id).expect("a sent probe is live");
                    let rec = *d.outstanding.record(slot);
                    if resend.remove(&slot) {
                        let q = questions.get_mut(&slot).expect("a re-sent question is open");
                        prop_assert_eq!(rec.kind, q.kind);
                        prop_assert_eq!(&p.path, &q.path);
                        prop_assert_eq!(rec.attempts, q.sends);
                        q.sends += 1;
                    } else {
                        prop_assert_eq!(rec.attempts, 0);
                        let old = questions.insert(
                            slot,
                            Question { kind: rec.kind, path: p.path.clone(), sends: 1 },
                        );
                        prop_assert!(old.is_none(), "a new question took an open slot");
                    }
                    let deadline = now + SimDuration::from_nanos(
                        timeout.nanos() << rec.attempts.min(6),
                    );
                    prop_assert_eq!(rec.deadline, deadline);
                    live.insert(p.probe_id, (deadline, slot));
                    let Some(r) = reply(&truth, 0, &p) else { continue };
                    let fate = if rec.attempts == max_retries { 0 } else { rng.gen_range(0..3) };
                    let arrival = match fate {
                        0 => now + hop,
                        1 => deadline + hop,
                        _ => continue, // Lost.
                    };
                    wire.insert((arrival, p.probe_id), r);
                }
                let table = &d.outstanding;
                let indexed = table.index.iter().filter(|&&s| s != NO_SLOT).count();
                prop_assert_eq!(indexed as u64, sent - answered - expired);
                prop_assert_eq!(indexed, live.len());
                let since_oldest = live.keys().next().map_or(0, |&oldest| last_id + 1 - oldest);
                prop_assert!(table.index.len() as u64 <= since_oldest);
                let open = table.slab.iter().filter(|s| matches!(s, Slot::Taken(_))).count();
                prop_assert_eq!(open, questions.len());
                prop_assert_eq!(d.retries.len(), resend.len());
                if burst > 0 {
                    now = now + tick;
                    continue;
                }
                let next = wire.keys().next().map(|k| k.0).into_iter().chain(d.next_deadline()).min();
                match next {
                    Some(at) => now = at,
                    None => break,
                }
            }
            prop_assert!(d.is_done(), "discovery quiesced unfinished");
            let found = d.to_topology().expect("dense IDs");
            prop_assert_eq!(found.switch_count(), truth.switch_count());
            prop_assert_eq!(link_set(&found), link_set(&truth));
            prop_assert_eq!(d.hosts(), host_set(&truth));
        }
    }
}
