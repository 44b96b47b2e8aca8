//! Typed control-plane messages.
//!
//! Control traffic rides inside ordinary DumbNet packets (probes *are*
//! data-plane packets — that is the whole point of the design). The
//! emulator keeps the payloads structured rather than serialized; the
//! wire codecs in this crate demonstrate byte-level framing separately.
//!
//! Message inventory:
//!
//! * Discovery (§4.1): [`ControlMessage::Probe`],
//!   [`ControlMessage::ProbeReply`], [`ControlMessage::SwitchIdReply`].
//! * Failure handling (§4.2): [`ControlMessage::LinkNotification`]
//!   (switch-originated, hop-limited broadcast),
//!   [`ControlMessage::HostFlood`] (host-to-host flooding),
//!   [`ControlMessage::TopologyPatchBatch`] (controller stage-2 flood).
//! * Path service (§4.3, §5.2): [`ControlMessage::PathRequest`] /
//!   [`ControlMessage::PathReply`].
//! * Controller replication: [`ControlMessage::ReplAppend`] /
//!   [`ControlMessage::ReplAck`].
//! * Measurement: [`ControlMessage::Ping`] / [`ControlMessage::Pong`].

use serde::{Deserialize, Serialize};

use dumbnet_topology::PathGraph;
use dumbnet_types::{
    DumbNetError, FastHashMap, MacAddr, Path, PortId, PortNo, Result, SimTime, SwitchId,
};

/// A link state change, as carried by notifications and patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkEvent {
    /// The switch reporting the event.
    pub switch: SwitchId,
    /// The port whose state changed.
    pub port: PortNo,
    /// New state.
    pub up: bool,
    /// Per-port sequence number used for duplicate suppression.
    pub seq: u64,
}

/// Link-event dedup for hosts and controllers (§4.2): the newest `seq`
/// heard per `(switch, port)`. A switch numbers a port's alarms in one
/// rising sequence across up and down, so an event at or below the
/// newest is a duplicate (another flood copy, a repeat round) or a
/// stale reorder. Memory is one entry per port heard from.
#[derive(Debug, Clone, Default)]
pub struct LinkEventFilter {
    newest: FastHashMap<(SwitchId, PortNo), u64>,
}

impl LinkEventFilter {
    /// The heap the filter's per-port table holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        dumbnet_types::heap::hash_map(&self.newest)
    }

    /// Whether `event` is news; if so it becomes its port's newest.
    pub fn admit(&mut self, event: LinkEvent) -> bool {
        let port = (event.switch, event.port);
        let news = self.newest.get(&port).is_none_or(|&n| event.seq > n);
        if news {
            self.newest.insert(port, event.seq);
        }
        news
    }
}

/// A batch of topology changes the controller floods in stage 2.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopoDelta {
    /// Switch pairs whose connecting link went down.
    pub down: Vec<(SwitchId, SwitchId)>,
    /// Newly verified links (with port detail so hosts can route over
    /// them immediately).
    pub up: Vec<(PortId, PortId)>,
    /// Switch pairs placed under quarantine: the link still forwards,
    /// but is suspected gray (partial loss / corruption) and must be
    /// avoided by path computation until probation clears it.
    pub quarantine: Vec<(SwitchId, SwitchId)>,
    /// Switch pairs released from quarantine after passing probation.
    pub unquarantine: Vec<(SwitchId, SwitchId)>,
}

impl TopoDelta {
    /// The heap the delta's four lists hold.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use dumbnet_types::heap::vec;
        vec(&self.down) + vec(&self.up) + vec(&self.quarantine) + vec(&self.unquarantine)
    }

    /// Returns `true` when the delta carries no changes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.down.is_empty()
            && self.up.is_empty()
            && self.quarantine.is_empty()
            && self.unquarantine.is_empty()
    }

    /// Whether the delta carries quarantine state (needs the V2 wire
    /// encoding).
    #[must_use]
    pub fn has_quarantine(&self) -> bool {
        !self.quarantine.is_empty() || !self.unquarantine.is_empty()
    }

    /// The hard link transitions as `(switch pair, up)`: the downs, then
    /// the ups.
    pub fn hard(&self) -> impl Iterator<Item = ((SwitchId, SwitchId), bool)> + '_ {
        let downs = self.down.iter().map(|&pair| (pair, false));
        downs.chain(self.up.iter().map(|&(a, b)| ((a.switch, b.switch), true)))
    }

    /// Bytes the delta takes on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.down.len() * 16
            + self.up.len() * 18
            + (self.quarantine.len() + self.unquarantine.len()) * 16
    }
}

/// One entry of the controllers' replicated topology log.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

impl From<&LogEntry> for PatchEntry {
    fn from(entry: &LogEntry) -> PatchEntry {
        PatchEntry {
            version: entry.version,
            delta: entry.delta.clone(),
        }
    }
}

/// One versioned topology change inside a [`PatchBatch`]: the delta that
/// took the controller's topology from `version - 1` to `version`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PatchEntry {
    /// Topology version after applying this entry's delta.
    pub version: u64,
    /// The changes.
    pub delta: TopoDelta,
}

/// Version byte of the batched-patch wire encoding.
const PATCH_BATCH_WIRE_V1: u8 = 0x01;

/// Version byte of the quarantine-aware batched-patch encoding: each
/// entry carries two extra item counts (quarantine / unquarantine
/// pairs). Emitted only when a batch actually carries quarantine state,
/// so legacy batches stay byte-identical to V1.
const PATCH_BATCH_WIRE_V2: u8 = 0x02;

/// Fixed header bytes of the batched-patch encoding: format byte, epoch,
/// term, segment index/total, entry count.
const PATCH_BATCH_HEADER: usize = 1 + 8 + 8 + 2 + 2 + 2;

/// Per-entry fixed bytes: version plus the two item counts.
const PATCH_ENTRY_HEADER: usize = 8 + 2 + 2;

/// Extra per-entry fixed bytes in the V2 encoding: the quarantine and
/// unquarantine item counts.
const PATCH_ENTRY_V2_EXTRA: usize = 2 + 2;

/// A batched stage-2 topology patch: many versioned deltas packed under a
/// single epoch header, so one flood round (and one stage-2 processing
/// delay) covers every event the controller learned in the window.
///
/// Large batches are split into `segs` segment frames that all carry the
/// same `(epoch, term)`; receivers coalesce the segments and apply the
/// union of entries **atomically** — a host either observes its table at
/// the previous version or at `epoch`, never in between (DESIGN.md §9).
///
/// The emulator keeps payloads structured; [`PatchBatch::to_wire`] /
/// [`PatchBatch::from_wire`] are the byte-level demonstration codec the
/// property tests and the data-plane fuzzer exercise.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PatchBatch {
    /// Topology version after applying every entry of the whole batch
    /// (all segments). Receivers with a table at or past `epoch` drop the
    /// batch as stale.
    pub epoch: u64,
    /// Leadership term of the flooding controller. Hosts discard
    /// batches from a fenced stale leader (lower term than the highest
    /// they have seen).
    pub term: u64,
    /// Zero-based index of this segment frame.
    pub seg: u16,
    /// Total segment frames in the batch (≥ 1).
    pub segs: u16,
    /// The entries carried by this segment, in ascending version order.
    pub entries: Vec<PatchEntry>,
}

impl PatchBatch {
    /// Wraps a single versioned delta as a one-segment, one-entry batch.
    #[must_use]
    pub fn singleton(version: u64, delta: TopoDelta, term: u64) -> PatchBatch {
        PatchBatch {
            epoch: version,
            term,
            seg: 0,
            segs: 1,
            entries: vec![PatchEntry { version, delta }],
        }
    }

    /// One flood of epoch `epoch`: `entries` in segment frames of at
    /// most `max` entries each.
    pub fn frames(
        epoch: u64,
        term: u64,
        entries: &[PatchEntry],
        max: usize,
    ) -> impl Iterator<Item = PatchBatch> + '_ {
        let segs = u16::try_from(entries.len().div_ceil(max)).unwrap_or(u16::MAX);
        let frame = move |(seg, chunk): (usize, &[PatchEntry])| PatchBatch {
            epoch,
            term,
            seg: u16::try_from(seg).unwrap_or(u16::MAX),
            segs,
            entries: chunk.to_vec(),
        };
        entries.chunks(max).enumerate().map(frame)
    }

    /// Whether any entry carries quarantine state, forcing the V2 wire
    /// encoding for the whole batch.
    #[must_use]
    fn needs_v2(&self) -> bool {
        self.entries.iter().any(|e| e.delta.has_quarantine())
    }

    /// Serialized size in bytes (what [`PatchBatch::to_wire`] emits).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let extra = if self.needs_v2() {
            PATCH_ENTRY_V2_EXTRA
        } else {
            0
        };
        PATCH_BATCH_HEADER
            + self
                .entries
                .iter()
                .map(|e| PATCH_ENTRY_HEADER + extra + e.delta.wire_len())
                .sum::<usize>()
    }

    /// Serializes the batch to its compact big-endian wire form.
    ///
    /// # Panics
    ///
    /// Panics if an item count exceeds `u16::MAX` — the controller caps
    /// segments far below that (`patch_batch_max`).
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let count = |n: usize, what: &str| -> [u8; 2] {
            u16::try_from(n)
                .unwrap_or_else(|_| panic!("{what} count {n} exceeds the u16 wire field"))
                .to_be_bytes()
        };
        let v2 = self.needs_v2();
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(if v2 {
            PATCH_BATCH_WIRE_V2
        } else {
            PATCH_BATCH_WIRE_V1
        });
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.term.to_be_bytes());
        out.extend_from_slice(&self.seg.to_be_bytes());
        out.extend_from_slice(&self.segs.to_be_bytes());
        out.extend_from_slice(&count(self.entries.len(), "entry"));
        for e in &self.entries {
            out.extend_from_slice(&e.version.to_be_bytes());
            out.extend_from_slice(&count(e.delta.down.len(), "down"));
            out.extend_from_slice(&count(e.delta.up.len(), "up"));
            if v2 {
                out.extend_from_slice(&count(e.delta.quarantine.len(), "quarantine"));
                out.extend_from_slice(&count(e.delta.unquarantine.len(), "unquarantine"));
            }
            for (a, b) in &e.delta.down {
                out.extend_from_slice(&a.0.to_be_bytes());
                out.extend_from_slice(&b.0.to_be_bytes());
            }
            for (pa, pb) in &e.delta.up {
                for p in [pa, pb] {
                    out.extend_from_slice(&p.switch.0.to_be_bytes());
                    out.push(p.port.get());
                }
            }
            if v2 {
                for (a, b) in e.delta.quarantine.iter().chain(&e.delta.unquarantine) {
                    out.extend_from_slice(&a.0.to_be_bytes());
                    out.extend_from_slice(&b.0.to_be_bytes());
                }
            }
        }
        debug_assert_eq!(out.len(), self.wire_len());
        out
    }

    /// Parses a batch from its wire form, validating structure, port
    /// domains, segment bounds, and exact length consumption.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::MalformedFrame`] for a wrong format byte,
    /// truncated or oversized input, reserved port values, a zero segment
    /// total, or a segment index at or past the total.
    pub fn from_wire(bytes: &[u8]) -> Result<PatchBatch> {
        struct Rd<'a>(&'a [u8], usize);
        impl Rd<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
                let end = self.1 + N;
                let slice = self
                    .0
                    .get(self.1..end)
                    .ok_or_else(|| DumbNetError::MalformedFrame("truncated patch batch".into()))?;
                self.1 = end;
                Ok(slice.try_into().expect("length checked"))
            }
            fn u64(&mut self) -> Result<u64> {
                Ok(u64::from_be_bytes(self.take()?))
            }
            fn u16(&mut self) -> Result<u16> {
                Ok(u16::from_be_bytes(self.take()?))
            }
            fn u8(&mut self) -> Result<u8> {
                Ok(self.take::<1>()?[0])
            }
        }
        let mut rd = Rd(bytes, 0);
        let fmt = rd.u8()?;
        if fmt != PATCH_BATCH_WIRE_V1 && fmt != PATCH_BATCH_WIRE_V2 {
            return Err(DumbNetError::MalformedFrame(format!(
                "unknown patch-batch format byte {fmt:#04x}"
            )));
        }
        let v2 = fmt == PATCH_BATCH_WIRE_V2;
        let epoch = rd.u64()?;
        let term = rd.u64()?;
        let seg = rd.u16()?;
        let segs = rd.u16()?;
        if segs == 0 {
            return Err(DumbNetError::MalformedFrame(
                "patch batch with zero segments".into(),
            ));
        }
        if seg >= segs {
            return Err(DumbNetError::MalformedFrame(format!(
                "patch segment {seg} out of range (of {segs})"
            )));
        }
        let n_entries = rd.u16()?;
        let mut entries = Vec::with_capacity(usize::from(n_entries).min(1024));
        for _ in 0..n_entries {
            let version = rd.u64()?;
            let n_down = rd.u16()?;
            let n_up = rd.u16()?;
            let (n_q, n_uq) = if v2 { (rd.u16()?, rd.u16()?) } else { (0, 0) };
            let mut delta = TopoDelta::default();
            for _ in 0..n_down {
                delta.down.push((SwitchId(rd.u64()?), SwitchId(rd.u64()?)));
            }
            for _ in 0..n_up {
                let mut port = || -> Result<PortId> {
                    let sw = SwitchId(rd.u64()?);
                    let p = PortNo::try_new(rd.u8()?)
                        .map_err(|e| DumbNetError::MalformedFrame(e.to_string()))?;
                    Ok(PortId::new(sw, p))
                };
                let pa = port()?;
                let pb = port()?;
                delta.up.push((pa, pb));
            }
            for _ in 0..n_q {
                delta
                    .quarantine
                    .push((SwitchId(rd.u64()?), SwitchId(rd.u64()?)));
            }
            for _ in 0..n_uq {
                delta
                    .unquarantine
                    .push((SwitchId(rd.u64()?), SwitchId(rd.u64()?)));
            }
            entries.push(PatchEntry { version, delta });
        }
        if rd.1 != bytes.len() {
            return Err(DumbNetError::MalformedFrame(format!(
                "{} trailing bytes after patch batch",
                bytes.len() - rd.1
            )));
        }
        Ok(PatchBatch {
            epoch,
            term,
            seg,
            segs,
            entries,
        })
    }
}

/// Per-port transmit counters carried by a statistics reply (§8: soft
/// state only — counters, no forwarding state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortStat {
    /// The port.
    pub port: PortNo,
    /// Packets transmitted out of this port.
    pub tx_packets: u64,
    /// Bytes transmitted out of this port.
    pub tx_bytes: u64,
}

/// All control-plane message types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMessage {
    /// A topology-discovery probing message (§4.1). "Its payload contains
    /// (i) a marker identifying it is a probing message, (ii) the source
    /// of the message, and (iii) the entire path to the destination."
    Probe {
        /// The probing host.
        origin: MacAddr,
        /// The full forward path the probe was launched with (the header
        /// path shrinks hop by hop; this copy lets receivers reply).
        forward_path: Path,
        /// Correlation ID chosen by the prober.
        probe_id: u64,
    },
    /// A host's answer to a probe, sent along the reversed path.
    ProbeReply {
        /// The replying host.
        responder: MacAddr,
        /// Whether the responder is a controller ("possibly the
        /// controller if the new host knows").
        is_controller: bool,
        /// Echo of the probe's correlation ID.
        probe_id: u64,
        /// Echo of the probe's forward path.
        forward_path: Path,
    },
    /// A switch's answer to an ID-query tag. The switch echoes the
    /// triggering payload so the prober can correlate replies.
    SwitchIdReply {
        /// The replying switch's factory-unique ID.
        switch: SwitchId,
        /// The payload of the packet that carried the ID-query tag.
        echo: Option<Box<ControlMessage>>,
    },
    /// Switch-originated port state notification, flooded with a hop
    /// limit ("a max of 5 hops is often enough").
    LinkNotification {
        /// The event.
        event: LinkEvent,
        /// Remaining hops; switches decrement and drop at zero.
        ttl: u8,
    },
    /// Host-to-host flood relaying a link event (stage 1 of failure
    /// handling, §4.2).
    HostFlood {
        /// The event being relayed.
        event: LinkEvent,
        /// The relaying host.
        from: MacAddr,
    },
    /// A host asks the controller for paths to a destination.
    PathRequest {
        /// Requesting host.
        src: MacAddr,
        /// Destination host (by MAC, the PathTable key).
        dst: MacAddr,
        /// Correlation ID.
        request_id: u64,
    },
    /// The controller's answer: a path graph, or `None` when the
    /// destination is unknown.
    PathReply {
        /// Echo of the request's correlation ID.
        request_id: u64,
        /// The cached subgraph (§4.3), if the destination exists.
        graph: Option<Box<PathGraph>>,
        /// Topology version the graph was computed against. Unread; it
        /// stays because `wire_size` charges its 8 bytes.
        topo_version: u64,
    },
    /// Host-originated gray-failure probe on a closed walk: its tags
    /// run out over a cached path and back over the same links to the
    /// prober itself, so no host answers it and its edge set is exact.
    PathProbe {
        /// The probing host.
        origin: MacAddr,
        /// Correlation ID; the prober maps it back to the walk.
        probe_id: u64,
    },
    /// Host → controller gray-failure report: "this link is dropping my
    /// traffic while nominally up", with the loss rate the host's
    /// detector attributes to it, so the controller can corroborate
    /// reports across hosts before quarantining.
    LinkSuspect {
        /// The reporting host.
        reporter: MacAddr,
        /// The suspected link (switch pair, as carried in patches).
        edge: (SwitchId, SwitchId),
        /// Attributed loss rate, in permille (0..=1000).
        loss_permille: u16,
        /// Per-reporter sequence number for duplicate suppression.
        seq: u64,
    },
    /// Controller stage-2 flood, batched: many versioned deltas under one
    /// epoch header, possibly split across segment frames; receivers
    /// coalesce segments and apply the batch atomically at the epoch
    /// boundary.
    TopologyPatchBatch(PatchBatch),
    /// Bootstrap message from the controller to a host: "you exist, here
    /// is how to reach me".
    ControllerHello {
        /// Controller identity.
        controller: MacAddr,
        /// Tag path from the host back to the controller.
        path_to_controller: Path,
        /// The sender's topology version. Unread; it stays because
        /// `wire_size` charges its 8 bytes.
        topo_version: u64,
        /// Whether the sender is a standby replica. Hosts send new path
        /// queries to every live controller round-robin (§4: "we use
        /// multiple controllers wherever possible … handling topology
        /// queries from clients"), but only a non-standby hello changes
        /// the primary.
        standby: bool,
        /// Leadership term of the sender's replica group.
        term: u64,
    },
    /// Leader→replica topology-log append (the ZooKeeper-substitute
    /// replication protocol).
    ReplAppend {
        /// The leader's identity.
        leader: MacAddr,
        /// The leader's term. Replicas reject lower-term appends; a
        /// higher term steps a stale leader down.
        term: u64,
        /// Index of the entry just before `entry` — for a heartbeat,
        /// of the leader's last entry (0: the empty log).
        prev_index: u64,
        /// Term of the entry at `prev_index` on the leader (0 at index
        /// 0). A follower stores `entry` only if its own log holds that
        /// entry with this term (Raft's consistency check).
        prev_term: u64,
        /// The leader's commit index. Followers adopt it up to the last
        /// index they know they share with the leader.
        commit: u64,
        /// The entry at `prev_index + 1`, keeping the term it was
        /// sequenced under; `None` makes the frame a heartbeat. Boxed:
        /// it rides in every packet-sized enum slot, and the fat
        /// variants would otherwise double the memcpy bill of the
        /// probe-dominated hot path.
        entry: Option<Box<LogEntry>>,
    },
    /// Replica→leader acknowledgement.
    ReplAck {
        /// The highest index the replica's log is known to share with
        /// the leader's (the leader's match index for it).
        index: u64,
        /// The acknowledging replica.
        replica: MacAddr,
        /// Term the replica acknowledged under (stale-term acks are
        /// ignored by the leader).
        term: u64,
    },
    /// Replica→leader log re-sync request: "send me everything after
    /// `after`". Sent when an append fails the consistency check (lost
    /// or stale `ReplAppend`s) or after a crash. The leader answers
    /// with ordinary `ReplAppend`s.
    ReplSyncRequest {
        /// The replica's commit index.
        after: u64,
        /// The requesting replica.
        replica: MacAddr,
        /// The replica's current term.
        term: u64,
    },
    /// Follower→members leadership campaign: "I propose to lead `term`;
    /// my log ends at `(last_term, last_index)`". Sent after the
    /// takeover timeout expires, staggered so the lowest-MAC live
    /// follower campaigns first.
    LeaderQuery {
        /// The campaigning follower.
        candidate: MacAddr,
        /// The proposed (next) term.
        term: u64,
        /// Term of the candidate's last log entry (0: empty log).
        last_term: u64,
        /// Index of the candidate's last log entry. Voters refuse a
        /// candidate whose `(last_term, last_index)` is behind their
        /// own (Raft's election restriction).
        last_index: u64,
        /// Flood budget. Zero for source-routed unicast; positive when
        /// the candidate has no topology yet and the campaign travels as
        /// a hop-limited broadcast relayed by switches (like
        /// [`ControlMessage::LinkNotification`]).
        ttl: u8,
    },
    /// A member's answer to a [`ControlMessage::LeaderQuery`]: a vote
    /// (exclusive per term), or a liveness signal from a leader that is
    /// still alive.
    LeaderQueryReply {
        /// The candidate this answer is addressed to — flooded replies
        /// reach every member, and a vote must never count for a
        /// campaign it was not cast in.
        candidate: MacAddr,
        /// The responding member.
        responder: MacAddr,
        /// Echo of the campaign term (or the responder's own, higher
        /// term when rejecting).
        term: u64,
        /// Whether the responder granted its vote for this term.
        granted: bool,
        /// Whether the responder currently leads — tells the candidate
        /// to stand down and treat this as a heartbeat.
        leader: bool,
        /// Flood budget (see [`ControlMessage::LeaderQuery::ttl`]).
        ttl: u8,
    },
    /// In-band switch statistics query (§8 future work: "mechanisms for
    /// packet statistics … either require no state, or only soft
    /// state"). Carried under an ID-query tag; the switch replies with
    /// [`ControlMessage::StatsReply`] along the remaining path.
    StatsQuery {
        /// Correlation ID chosen by the querier.
        probe_id: u64,
    },
    /// A switch's statistics reply.
    StatsReply {
        /// The replying switch.
        switch: SwitchId,
        /// Echo of the query's correlation ID.
        probe_id: u64,
        /// Per-port transmit counters (wired ports only).
        ports: Vec<PortStat>,
    },
    /// Receiver → sender congestion echo (§8 ECN support): the receiver
    /// saw an ECN-marked packet of this flow and tells the sender so its
    /// routing function can move the flow at the next flowlet boundary.
    EcnEcho {
        /// The congested flow.
        flow: u64,
    },
    /// Spanning-tree bridge PDU, used only by the conventional-network
    /// baseline switch (Figure 11(b)'s comparison).
    Bpdu {
        /// Bridge ID the sender believes is the root.
        root: u64,
        /// Sender's cost to that root.
        cost: u32,
        /// Sender's own bridge ID.
        sender: u64,
    },
    /// Measurement echo request.
    Ping {
        /// Sender-chosen sequence number.
        seq: u64,
        /// Virtual send timestamp.
        sent_at: SimTime,
    },
    /// Measurement echo reply.
    Pong {
        /// Echoed sequence number.
        seq: u64,
        /// Echoed send timestamp of the ping.
        echo_sent_at: SimTime,
    },
}

impl ControlMessage {
    /// Approximate serialized size in bytes, used by the emulator for
    /// link-time accounting. Sizes mirror a compact binary encoding: a
    /// one-byte discriminant plus fixed-size fields, with paths at one
    /// byte per tag and path graphs at ~12 bytes per edge.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            ControlMessage::Probe { forward_path, .. } => 1 + 6 + 8 + forward_path.len() + 1,
            ControlMessage::ProbeReply { forward_path, .. } => {
                1 + 6 + 1 + 8 + forward_path.len() + 1
            }
            ControlMessage::SwitchIdReply { echo, .. } => {
                1 + 8 + echo.as_ref().map_or(0, |e| e.wire_size())
            }
            ControlMessage::LinkNotification { .. } => 1 + 8 + 1 + 1 + 8 + 1,
            ControlMessage::HostFlood { .. } => 1 + 8 + 1 + 1 + 8 + 6,
            ControlMessage::PathRequest { .. } => 1 + 6 + 6 + 8,
            ControlMessage::PathReply { graph, .. } => {
                1 + 8
                    + 8
                    + graph
                        .as_ref()
                        .map_or(0, |g| 32 + g.edge_count() * 12 + g.switch_count() * 8)
            }
            ControlMessage::TopologyPatchBatch(batch) => 1 + batch.wire_len(),
            ControlMessage::PathProbe { .. } => 1 + 6 + 8,
            ControlMessage::LinkSuspect { .. } => 1 + 6 + 16 + 2 + 8,
            ControlMessage::ControllerHello {
                path_to_controller, ..
            } => 1 + 6 + path_to_controller.len() + 1 + 8 + 8,
            // An entry's index is `prev_index + 1` and is not sent.
            ControlMessage::ReplAppend { entry, .. } => {
                1 + 6 + 8 + 8 + 8 + 8 + entry.as_ref().map_or(0, |e| 8 + 8 + e.delta.wire_len())
            }
            ControlMessage::ReplAck { .. } => 1 + 8 + 6 + 8,
            ControlMessage::ReplSyncRequest { .. } => 1 + 8 + 6 + 8,
            ControlMessage::LeaderQuery { .. } => 1 + 6 + 8 + 8 + 8 + 1,
            ControlMessage::LeaderQueryReply { .. } => 1 + 6 + 6 + 8 + 1 + 1 + 1,
            ControlMessage::StatsQuery { .. } => 1 + 8,
            ControlMessage::StatsReply { ports, .. } => 1 + 8 + 8 + ports.len() * 17,
            ControlMessage::EcnEcho { .. } => 1 + 8,
            // The real 802.1D configuration BPDU is 35 bytes.
            ControlMessage::Bpdu { .. } => 35,
            ControlMessage::Ping { .. } | ControlMessage::Pong { .. } => 1 + 8 + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_content() {
        let short = ControlMessage::Probe {
            origin: MacAddr::for_host(1),
            forward_path: Path::from_ports([1]).unwrap(),
            probe_id: 1,
        };
        let long = ControlMessage::Probe {
            origin: MacAddr::for_host(1),
            forward_path: Path::from_ports([1, 2, 3, 4, 5]).unwrap(),
            probe_id: 1,
        };
        assert_eq!(long.wire_size() - short.wire_size(), 4);
    }

    #[test]
    fn switch_id_reply_includes_echo_size() {
        let probe = ControlMessage::Probe {
            origin: MacAddr::for_host(1),
            forward_path: Path::from_ports([1, 2]).unwrap(),
            probe_id: 9,
        };
        let bare = ControlMessage::SwitchIdReply {
            switch: SwitchId(3),
            echo: None,
        };
        let with_echo = ControlMessage::SwitchIdReply {
            switch: SwitchId(3),
            echo: Some(Box::new(probe.clone())),
        };
        assert_eq!(with_echo.wire_size(), bare.wire_size() + probe.wire_size());
    }

    #[test]
    fn link_event_filter_admits_only_a_ports_newest_seq() {
        let ev = |p: u8, up: bool, seq: u64| LinkEvent {
            switch: SwitchId(1),
            port: PortNo::new(p).unwrap(),
            up,
            seq,
        };
        let mut filter = LinkEventFilter::default();
        assert!(filter.admit(ev(2, false, 1)));
        // Another copy, and the same seq claiming the other state.
        assert!(!filter.admit(ev(2, false, 1)));
        assert!(!filter.admit(ev(2, true, 1)));
        // The next alarm, then the earlier one reordered behind it.
        assert!(filter.admit(ev(2, true, 3)));
        assert!(!filter.admit(ev(2, false, 2)));
        // Every port and every switch keeps its own sequence.
        assert!(filter.admit(ev(3, false, 1)));
        let other = LinkEvent {
            switch: SwitchId(2),
            ..ev(2, false, 1)
        };
        assert!(filter.admit(other));
        assert!(filter.admit(ev(2, false, 4)));
    }

    #[test]
    fn empty_delta_detected() {
        assert!(TopoDelta::default().is_empty());
        let d = TopoDelta {
            down: vec![(SwitchId(1), SwitchId(2))],
            ..TopoDelta::default()
        };
        assert!(!d.is_empty());
        let q = TopoDelta {
            quarantine: vec![(SwitchId(1), SwitchId(2))],
            ..TopoDelta::default()
        };
        assert!(!q.is_empty());
        assert!(q.has_quarantine());
    }

    fn sample_batch() -> PatchBatch {
        let p = |s: u64, n: u8| PortId::new(SwitchId(s), PortNo::new(n).unwrap());
        PatchBatch {
            epoch: 7,
            term: 3,
            seg: 1,
            segs: 2,
            entries: vec![
                PatchEntry {
                    version: 6,
                    delta: TopoDelta {
                        down: vec![(SwitchId(1), SwitchId(2))],
                        ..TopoDelta::default()
                    },
                },
                PatchEntry {
                    version: 7,
                    delta: TopoDelta {
                        up: vec![(p(1, 4), p(2, 9))],
                        ..TopoDelta::default()
                    },
                },
            ],
        }
    }

    #[test]
    fn patch_batch_frames_split_at_the_segment_size() {
        let entry = |version: u64| PatchEntry {
            version,
            delta: TopoDelta {
                down: vec![(SwitchId(version), SwitchId(version + 1))],
                ..TopoDelta::default()
            },
        };
        let entries: Vec<PatchEntry> = (1..=5).map(entry).collect();
        let frames: Vec<_> = PatchBatch::frames(5, 3, &entries, 2).collect();
        let shape: Vec<_> = frames
            .iter()
            .map(|f| (f.epoch, f.term, f.seg, f.segs, f.entries.len()))
            .collect();
        assert_eq!(shape, [(5, 3, 0, 3, 2), (5, 3, 1, 3, 2), (5, 3, 2, 3, 1)]);
        let rejoined: Vec<PatchEntry> = frames.into_iter().flat_map(|f| f.entries).collect();
        assert_eq!(rejoined, entries);
        let whole: Vec<_> = PatchBatch::frames(5, 3, &entries, 32).collect();
        assert_eq!((whole.len(), whole[0].segs), (1, 1));
    }

    #[test]
    fn patch_batch_round_trips_and_sizes_agree() {
        let batch = sample_batch();
        let wire = batch.to_wire();
        assert_eq!(wire.len(), batch.wire_len());
        let parsed = PatchBatch::from_wire(&wire).unwrap();
        assert_eq!(parsed, batch);
        // The structured message charges the codec size plus the
        // discriminant, like every other control message.
        let msg = ControlMessage::TopologyPatchBatch(batch.clone());
        assert_eq!(msg.wire_size(), 1 + batch.wire_len());
    }

    #[test]
    fn patch_batch_rejects_malformed_wire() {
        let batch = sample_batch();
        let wire = batch.to_wire();
        // Truncation at every prefix length must fail, never panic.
        for cut in 0..wire.len() {
            assert!(PatchBatch::from_wire(&wire[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected (exact-consumption rule).
        let mut long = wire.clone();
        long.push(0);
        assert!(PatchBatch::from_wire(&long).is_err());
        // Wrong format byte.
        let mut bad = wire.clone();
        bad[0] = 0x7F;
        assert!(PatchBatch::from_wire(&bad).is_err());
        // Segment index out of range.
        let out_of_range = PatchBatch {
            seg: 2,
            ..sample_batch()
        };
        assert!(PatchBatch::from_wire(&out_of_range.to_wire()).is_err());
    }

    #[test]
    fn quarantine_batches_use_v2_and_round_trip() {
        // Legacy batches keep the V1 format byte — byte-for-byte stable.
        let legacy = sample_batch();
        assert_eq!(legacy.to_wire()[0], 0x01);

        let gray = PatchBatch {
            epoch: 9,
            term: 4,
            seg: 0,
            segs: 1,
            entries: vec![PatchEntry {
                version: 9,
                delta: TopoDelta {
                    quarantine: vec![(SwitchId(3), SwitchId(8))],
                    unquarantine: vec![(SwitchId(5), SwitchId(6))],
                    ..TopoDelta::default()
                },
            }],
        };
        let wire = gray.to_wire();
        assert_eq!(wire[0], 0x02);
        assert_eq!(wire.len(), gray.wire_len());
        let parsed = PatchBatch::from_wire(&wire).unwrap();
        assert_eq!(parsed, gray);
        // Truncations of a V2 frame are rejected too.
        for cut in 0..wire.len() {
            assert!(PatchBatch::from_wire(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn gray_control_messages_have_sizes() {
        let suspect = ControlMessage::LinkSuspect {
            reporter: MacAddr::for_host(3),
            edge: (SwitchId(1), SwitchId(2)),
            loss_permille: 250,
            seq: 1,
        };
        assert_eq!(suspect.wire_size(), 33);
        let probe = ControlMessage::PathProbe {
            origin: MacAddr::for_host(3),
            probe_id: 7,
        };
        assert_eq!(probe.wire_size(), 15);
    }

    #[test]
    fn replication_frames_have_sizes() {
        let entry = LogEntry {
            index: 4,
            version: 9,
            term: 2,
            delta: TopoDelta {
                down: vec![(SwitchId(1), SwitchId(2))],
                ..TopoDelta::default()
            },
        };
        let append = |entry| ControlMessage::ReplAppend {
            leader: MacAddr::for_host(1),
            term: 2,
            prev_index: 3,
            prev_term: 1,
            commit: 3,
            entry,
        };
        assert_eq!(append(None).wire_size(), 39);
        assert_eq!(append(Some(Box::new(entry))).wire_size(), 39 + 16 + 16);
        let query = ControlMessage::LeaderQuery {
            candidate: MacAddr::for_host(2),
            term: 3,
            last_term: 2,
            last_index: 4,
            ttl: 0,
        };
        assert_eq!(query.wire_size(), 32);
    }
}
