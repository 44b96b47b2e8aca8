//! Flow-level network simulation with incremental max-min fair sharing.
//!
//! Packet-level simulation of a multi-minute HiBench job would burn hours
//! of real time without changing the conclusion, so throughput-oriented
//! experiments use this solver instead: every active flow follows a fixed
//! path over capacitated edges, and rates are assigned by progressive
//! filling (the classic max-min fair allocation, which is also what
//! long-lived TCP flows approximate on a shared fabric).
//!
//! The engine is event-driven and externally orchestrated: callers start
//! flows, advance virtual time, observe completions, and may change edge
//! capacities mid-run (failure injection) or start dependent flows when
//! earlier ones complete (shuffle stages, flowlet re-routing).
//!
//! # Incremental re-solve
//!
//! A naive solver re-runs progressive filling over *every* flow on every
//! arrival, departure, re-route or capacity change — O(F·E) per event,
//! which dominates wall time once tens of thousands of flows are active.
//! This implementation instead maintains per-edge active-flow lists and a
//! dirty-edge list, and on each query re-solves only the **saturation
//! component** reachable from the dirty edges: the transitive closure of
//! "shares an edge with" over the flow↔edge incidence graph. Flows in
//! other components provably keep their previous max-min rates (the
//! allocation of one component never depends on another), so their stored
//! values stay exact.
//!
//! Within a component the filling itself uses an indexed min-heap keyed
//! on `(fair-share, edge index)` — one live entry per loaded edge, moved
//! in place when the edge's share changes — plus incrementally maintained
//! unfixed counts, replacing the reference solver's per-round full
//! rescans. A re-solve first replays the previous solve's bottleneck
//! order without the heap, up to the first round a changed edge can
//! reach (DESIGN §12.1). The floating-point operations — bottleneck
//! selection with lowest-index-wins tie-breaks, freeze order, per-edge
//! capacity subtraction order — are performed in exactly the reference
//! order, so the incremental rates are **bit-identical** to a
//! from-scratch solve, not merely close. [`FlowSim::set_check_full_solve`]
//! turns on a debug mode that asserts this equivalence after every
//! re-solve, and [`FlowSim::set_force_full_solve`] pins the solver to the
//! O(F·E) reference path (the other mode of the `flow-churn` gate row).
//! The incidence is flat — sorted member `Vec`s, one path arena, dense
//! rates — and every per-solve buffer is reused, so a steady-state
//! re-solve allocates nothing.

use std::collections::BTreeSet;
use std::ops::Range;

use dumbnet_types::{heap, Bandwidth, SimDuration, SimTime};

/// Identity of a capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// Identity of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// A completion notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// The flow that finished.
    pub flow: FlowId,
    /// When it finished.
    pub at: SimTime,
}

/// Counters describing the solver's work since creation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Rate re-solves performed (incremental or forced-full).
    pub solves: u64,
    /// Re-solves that took the O(F·E) reference path (forced mode).
    pub full_solves: u64,
    /// Total flows whose rates were recomputed, across all solves.
    pub flows_resolved: u64,
    /// Total edge participations in re-solved components.
    pub edges_resolved: u64,
    /// Largest single saturation component (in flows) seen so far.
    pub max_component_flows: u64,
    /// Bottlenecks the incremental solver froze, popped or replayed.
    pub rounds: u64,
    /// Of [`SolverStats::rounds`], those replayed from the previous
    /// solve's bottleneck order without the heap.
    pub rounds_replayed: u64,
}

/// Rate an empty-path (unconstrained) flow is assigned: effectively
/// infinite, so it completes on the next advance.
const UNCONSTRAINED_BPS: f64 = f64::MAX / 4.0;

#[derive(Debug, Clone, Default)]
struct Edge {
    capacity_bps: f64,
    /// Active flows crossing this edge as `(flow, path multiplicity)`,
    /// ascending by flow (an arrival carries the highest index so far,
    /// so it lands at the tail).
    members: Vec<(u32, u32)>,
    /// Σ rate × multiplicity over members; refreshed when the edge's
    /// component is re-solved.
    load_bps: f64,
    /// The edge is on [`FlowSim::dirty`], or is a seed of the solve
    /// under way.
    dirty: bool,
    /// The edge is on [`FlowSim::changed`].
    changed: bool,
}

impl Edge {
    /// Recomputes the allocated load from the member list (ascending
    /// flow order — a stable accumulation order).
    fn refresh_load(&mut self, rates: &[f64]) {
        let mut sum = 0.0;
        for &(fx, mult) in &self.members {
            sum += rates[fx as usize] * f64::from(mult);
        }
        self.load_bps = sum;
    }
}

#[derive(Debug, Clone)]
struct Flow {
    /// Where the path sits in [`FlowSim::paths`].
    path_at: u32,
    path_len: u32,
    remaining_bits: f64,
    finished: Option<SimTime>,
}

impl Flow {
    fn path(&self) -> Range<usize> {
        self.path_at as usize..(self.path_at + self.path_len) as usize
    }
}

/// Appends `e` to a flag-stamped edge list unless its flag says it is
/// already there.
fn stamp(list: &mut Vec<u32>, flag: &mut bool, e: u32) {
    if !*flag {
        *flag = true;
        list.push(e);
    }
}

/// [`BottleneckHeap::pos`] of an edge with no live entry.
const ABSENT: u32 = u32::MAX;

/// [`Scratch::flow_stamp`] bit of a flow frozen by the solve whose epoch
/// the low bits hold.
const FROZEN: u64 = 1 << 63;

/// Indexed binary min-heap of `(fair-share bits, edge index)`: at most
/// one entry per edge, found through a per-edge position table so a
/// changed share moves its entry in place instead of queueing a second
/// one. Keys are unique (the edge breaks ties), so the pop order is a
/// function of the live key set alone, not of the update order.
#[derive(Debug, Default)]
struct BottleneckHeap {
    slots: Vec<(u64, u32)>,
    /// Slot of each edge's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

impl BottleneckHeap {
    /// Inserts `edge`, or moves its entry to `bits`.
    fn set(&mut self, edge: u32, bits: u64) {
        let at = self.pos[edge as usize];
        if at == ABSENT {
            self.slots.push((bits, edge));
            self.sift_up(self.slots.len() - 1);
        } else {
            self.overwrite(at as usize, (bits, edge));
        }
    }

    /// Drops `edge`'s entry, if it has one.
    fn remove(&mut self, edge: u32) {
        let at = std::mem::replace(&mut self.pos[edge as usize], ABSENT) as usize;
        if at == ABSENT as usize {
            return;
        }
        let last = self.slots.pop().expect("a positioned entry is stored");
        if at < self.slots.len() {
            self.overwrite(at, last);
        }
    }

    /// Puts `item` in slot `at` and restores the heap order around it.
    fn overwrite(&mut self, at: usize, item: (u64, u32)) {
        if item < std::mem::replace(&mut self.slots[at], item) {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
    }

    /// Removes and returns the minimal `(bits, edge)`.
    fn pop(&mut self) -> Option<(u64, u32)> {
        let top = *self.slots.first()?;
        self.remove(top.1);
        Some(top)
    }

    fn clear(&mut self) {
        for &(_, edge) in &self.slots {
            self.pos[edge as usize] = ABSENT;
        }
        self.slots.clear();
    }

    fn sift_up(&mut self, mut at: usize) {
        let item = self.slots[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.slots[parent] <= item {
                break;
            }
            self.place(at, self.slots[parent]);
            at = parent;
        }
        self.place(at, item);
    }

    fn sift_down(&mut self, mut at: usize) {
        let item = self.slots[at];
        loop {
            let mut child = 2 * at + 1;
            if child + 1 < self.slots.len() && self.slots[child + 1] < self.slots[child] {
                child += 1;
            }
            if child >= self.slots.len() || item <= self.slots[child] {
                break;
            }
            self.place(at, self.slots[child]);
            at = child;
        }
        self.place(at, item);
    }

    fn place(&mut self, at: usize, item: (u64, u32)) {
        self.slots[at] = item;
        self.pos[item.1 as usize] = at as u32;
    }
}

/// Reusable solver scratch space (per-edge/per-flow arrays stamped with
/// a solve epoch instead of being cleared, so a small component's solve
/// touches only the component).
#[derive(Debug, Default)]
struct Scratch {
    /// Remaining capacity per edge, valid for the current component.
    rem: Vec<f64>,
    /// Unfixed path-occurrence count per edge, ditto.
    count: Vec<u32>,
    /// BFS visit stamp per edge.
    edge_seen: Vec<u64>,
    /// Per flow: the solve epoch from the BFS visit until the flow's
    /// rate is frozen, then `FROZEN | epoch`; 0 once the flow is put on
    /// a path, until a solve visits it.
    flow_stamp: Vec<u64>,
    /// Current solve epoch (bumped per solve).
    epoch: u64,
    /// The last incremental solve's bottlenecks in pop order.
    log: Vec<u32>,
    /// Epoch of the solve that wrote `log`; 0 when there is none to
    /// replay.
    log_epoch: u64,
    /// The component's edges in discovery order, dirty seeds first;
    /// doubles as the BFS queue.
    comp_edges: Vec<u32>,
    /// Edges whose share changed in the current round and whose heap
    /// entry is owed an update; empty between solves.
    touched: Vec<u32>,
    /// Per edge: the edge is on `touched`.
    edge_touched: Vec<bool>,
    heap: BottleneckHeap,
}

impl Scratch {
    /// Freezes the unfixed flows among a bottleneck's `members` at
    /// `fair`, in ascending flow order, and charges each along its path
    /// in path order, listing every edge whose share moved on
    /// `touched`. Returns how many flows it froze.
    fn freeze(
        &mut self,
        members: &[(u32, u32)],
        fair: f64,
        flows: &[Flow],
        paths: &[u32],
        rates: &mut [f64],
    ) -> usize {
        let epoch = self.epoch;
        let mut frozen = 0;
        for &(fx, _) in members {
            if self.flow_stamp[fx as usize] != epoch {
                continue;
            }
            self.flow_stamp[fx as usize] = FROZEN | epoch;
            rates[fx as usize] = fair;
            frozen += 1;
            for &pe in &paths[flows[fx as usize].path()] {
                self.rem[pe as usize] -= fair;
                self.count[pe as usize] -= 1;
                stamp(&mut self.touched, &mut self.edge_touched[pe as usize], pe);
            }
        }
        frozen
    }

    /// Moves the heap entry of every edge on `touched` to the edge's
    /// current share, or drops it once no unfixed flow loads the edge.
    /// An edge without an entry (a clean one, during a replay) keeps
    /// none.
    fn settle(&mut self) {
        for pe in self.touched.drain(..) {
            self.edge_touched[pe as usize] = false;
            if self.heap.pos[pe as usize] != ABSENT {
                match self.count[pe as usize] {
                    0 => self.heap.remove(pe),
                    count => self.heap.set(pe, fair_bits(self.rem[pe as usize], count)),
                }
            }
        }
    }
}

/// Heap key of an edge's fair share: what the reference computes, as
/// bits (non-negative, so they order as the values do).
fn fair_bits(rem: f64, count: u32) -> u64 {
    (rem.max(0.0) / f64::from(count)).to_bits()
}

/// The flow-level simulator.
#[derive(Debug, Default)]
pub struct FlowSim {
    edges: Vec<Edge>,
    flows: Vec<Flow>,
    /// Current max-min rate per flow slot; 0 once finished, so rate
    /// queries need not look the flow up.
    rates: Vec<f64>,
    /// Path arena: every flow's edge indices, at [`Flow::path`].
    paths: Vec<u32>,
    /// Unfinished flows, ascending.
    active: BTreeSet<u32>,
    /// Edges whose constraint set changed since the last solve, each
    /// listed once ([`Edge::dirty`]).
    dirty: Vec<u32>,
    /// Edges whose load was recomputed since the last
    /// [`FlowSim::take_changed_edges`] drain ([`Edge::changed`]).
    changed: Vec<u32>,
    now: SimTime,
    force_full: bool,
    check_full: bool,
    stats: SolverStats,
    scratch: Scratch,
}

impl FlowSim {
    /// Creates an empty simulator at time zero.
    #[must_use]
    pub fn new() -> FlowSim {
        FlowSim::default()
    }

    /// Adds a capacitated edge.
    pub fn add_edge(&mut self, capacity: Bandwidth) -> EdgeId {
        let id = EdgeId(self.edges.len());
        // Members, paths and the solver scratch carry edges as `u32`,
        // and the heap's position table reserves `u32::MAX`.
        assert!(id.0 < u32::MAX as usize, "edge table outgrew u32");
        self.edges.push(Edge {
            capacity_bps: capacity.bits_per_sec() as f64,
            ..Edge::default()
        });
        id
    }

    /// Makes room for `additional` more edges, exactly: a caller that
    /// knows its edge count leaves the edge table no growth slack.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve_exact(additional);
    }

    /// The heap the flow plane holds: edges and their member lists,
    /// flows, rates, the path arena, the work lists and the solver's
    /// scratch.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let members: usize = self.edges.iter().map(|e| heap::vec(&e.members)).sum();
        let sc = &self.scratch;
        heap::vec(&self.edges)
            + members
            + heap::vec(&self.flows)
            + heap::vec(&self.rates)
            + heap::vec(&self.paths)
            + heap::btree_set(&self.active)
            + heap::vec(&self.dirty)
            + heap::vec(&self.changed)
            + heap::vec(&sc.rem)
            + heap::vec(&sc.count)
            + heap::vec(&sc.edge_seen)
            + heap::vec(&sc.flow_stamp)
            + heap::vec(&sc.log)
            + heap::vec(&sc.comp_edges)
            + heap::vec(&sc.touched)
            + heap::vec(&sc.edge_touched)
            + heap::vec(&sc.heap.slots)
            + heap::vec(&sc.heap.pos)
    }

    /// Number of edges created so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Changes an edge's capacity (e.g. a failed link drops to zero).
    /// Takes effect immediately; active flows re-share.
    ///
    /// # Panics
    ///
    /// Panics on an unknown edge — edges are created by this simulator,
    /// so an out-of-range ID is a caller bug.
    pub fn set_capacity(&mut self, edge: EdgeId, capacity: Bandwidth) {
        let e = &mut self.edges[edge.0];
        e.capacity_bps = capacity.bits_per_sec() as f64;
        stamp(&mut self.dirty, &mut e.dirty, edge.0 as u32);
    }

    /// An edge's configured capacity in bits per second.
    ///
    /// # Panics
    ///
    /// Panics on an unknown edge.
    #[must_use]
    pub fn edge_capacity_bps(&self, edge: EdgeId) -> f64 {
        self.edges[edge.0].capacity_bps
    }

    /// Pins the solver to the O(F·E) from-scratch reference path. Used
    /// as the perf baseline; rates are identical either way.
    pub fn set_force_full_solve(&mut self, on: bool) {
        self.force_full = on;
        // Conservatively invalidate everything on a mode switch: forced
        // solves neither stamp flows nor write the replay log.
        for (e, edge) in self.edges.iter_mut().enumerate() {
            stamp(&mut self.dirty, &mut edge.dirty, e as u32);
        }
        self.scratch.log.clear();
        self.scratch.log_epoch = 0;
    }

    /// Debug mode: after every incremental re-solve, recompute all rates
    /// with the reference solver and assert bit-identical results.
    pub fn set_check_full_solve(&mut self, on: bool) {
        self.check_full = on;
    }

    /// Counters describing the solver's work so far.
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Starts a flow of `bytes` along `path` at the current time.
    ///
    /// An empty path means both endpoints share an uncontended segment;
    /// such flows complete instantly on the next advance.
    pub fn start_flow(&mut self, path: Vec<EdgeId>, bytes: u64) -> FlowId {
        // Members and the solver scratch carry flows as `u32`.
        assert!(
            self.flows.len() < u32::MAX as usize,
            "flow table outgrew u32"
        );
        let ix = self.flows.len() as u32;
        self.flows.push(Flow {
            path_at: 0,
            path_len: 0,
            remaining_bits: bytes as f64 * 8.0,
            finished: None,
        });
        self.rates.push(0.0);
        self.attach(ix, &path);
        self.active.insert(ix);
        FlowId(ix as usize)
    }

    /// Re-routes an active flow onto a new path (flowlet switching /
    /// failover). No-op for finished flows.
    pub fn reroute(&mut self, flow: FlowId, path: Vec<EdgeId>) {
        if self.flows.get(flow.0).is_none_or(|f| f.finished.is_some()) {
            return;
        }
        self.detach(flow.0 as u32);
        self.attach(flow.0 as u32, &path);
    }

    /// Puts flow `ix` on `path`: stores the path (over the flow's old
    /// arena run when it fits, else at the arena's tail), joins every
    /// edge's member list, and resets the rate and the solver stamp for
    /// the next solve.
    fn attach(&mut self, ix: u32, path: &[EdgeId]) {
        if let Some(mark) = self.scratch.flow_stamp.get_mut(ix as usize) {
            *mark = 0;
        }
        let flow = &mut self.flows[ix as usize];
        if path.len() > flow.path_len as usize {
            assert!(
                self.paths.len() + path.len() <= u32::MAX as usize,
                "path arena outgrew u32"
            );
            flow.path_at = self.paths.len() as u32;
            self.paths.resize(self.paths.len() + path.len(), 0);
        }
        flow.path_len = path.len() as u32;
        let run = flow.path();
        for (slot, e) in self.paths[run].iter_mut().zip(path) {
            let edge = &mut self.edges[e.0];
            match edge.members.binary_search_by_key(&ix, |m| m.0) {
                Ok(at) => edge.members[at].1 += 1,
                Err(at) => edge.members.insert(at, (ix, 1)),
            }
            *slot = e.0 as u32;
            stamp(&mut self.dirty, &mut edge.dirty, e.0 as u32);
        }
        self.rates[ix as usize] = if path.is_empty() {
            UNCONSTRAINED_BPS
        } else {
            0.0
        };
    }

    /// Takes flow `ix` off every edge of its path and marks those edges
    /// dirty so the freed bandwidth is re-shared.
    fn detach(&mut self, ix: u32) {
        for &e in &self.paths[self.flows[ix as usize].path()] {
            let edge = &mut self.edges[e as usize];
            if let Ok(at) = edge.members.binary_search_by_key(&ix, |m| m.0) {
                edge.members.remove(at);
            }
            stamp(&mut self.dirty, &mut edge.dirty, e);
        }
    }

    /// The flow's current max-min rate.
    #[must_use]
    pub fn flow_rate(&mut self, flow: FlowId) -> Bandwidth {
        self.ensure_rates();
        Bandwidth::bps(self.rates.get(flow.0).map_or(0.0, |&r| r) as u64)
    }

    /// When the flow finished, if it has.
    #[must_use]
    pub fn finished_at(&self, flow: FlowId) -> Option<SimTime> {
        self.flows.get(flow.0).and_then(|f| f.finished)
    }

    /// Number of unfinished flows.
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Total offered load currently allocated across `edge`
    /// (Σ rate × path multiplicity over the flows crossing it), in bits
    /// per second.
    ///
    /// # Panics
    ///
    /// Panics on an unknown edge.
    pub fn edge_load_bps(&mut self, edge: EdgeId) -> f64 {
        self.ensure_rates();
        self.edges[edge.0].load_bps
    }

    /// Fraction of `edge`'s capacity currently allocated (0 when the
    /// capacity is zero: a dead link carries nothing).
    ///
    /// # Panics
    ///
    /// Panics on an unknown edge.
    pub fn edge_utilization(&mut self, edge: EdgeId) -> f64 {
        self.ensure_rates();
        let e = &self.edges[edge.0];
        if e.capacity_bps > 0.0 {
            e.load_bps / e.capacity_bps
        } else {
            0.0
        }
    }

    /// Drains the set of edges whose allocated load changed since the
    /// last drain (ascending). The hybrid engine uses this to refresh
    /// only the congestion marks that could have moved.
    pub fn take_changed_edges(&mut self) -> Vec<EdgeId> {
        self.ensure_rates();
        self.changed.sort_unstable();
        let drained = self.changed.drain(..).map(|e| {
            self.edges[e as usize].changed = false;
            EdgeId(e as usize)
        });
        drained.collect()
    }

    /// The instant the next completion would occur if nothing else
    /// changes (the same horizon [`FlowSim::advance_to`] steps to),
    /// or `None` when no active flow is progressing.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        let next = self.next_completion_secs();
        if next.is_finite() {
            Some(
                self.now
                    + SimDuration::from_secs_f64(next).saturating_add(SimDuration::from_nanos(1)),
            )
        } else {
            None
        }
    }

    /// Seconds until the next completion among active flows (the
    /// reference fold order: ascending flow index, `f64::min`).
    fn next_completion_secs(&self) -> f64 {
        self.active
            .iter()
            .filter_map(|&ix| {
                let remaining = self.flows[ix as usize].remaining_bits;
                let rate = self.rates[ix as usize];
                if rate <= 0.0 {
                    // Starved flow (all paths at zero capacity): never
                    // completes on its own.
                    if remaining <= 0.0 {
                        Some(0.0)
                    } else {
                        None
                    }
                } else {
                    Some(remaining / rate)
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Advances virtual time to `until`, returning every completion that
    /// occurs on the way (in order).
    pub fn advance_to(&mut self, until: SimTime) -> Vec<FlowEvent> {
        let mut events = Vec::new();
        while self.now < until {
            self.ensure_rates();
            let next = self.next_completion_secs();
            let step_end = if next.is_finite() {
                // Round the completion horizon *up* to a whole nanosecond
                // so virtual time always advances (sub-ns remainders are
                // swept up by the completion epsilon below).
                let step =
                    SimDuration::from_secs_f64(next).saturating_add(SimDuration::from_nanos(1));
                let tc = self.now + step;
                if tc <= until {
                    tc
                } else {
                    until
                }
            } else {
                until
            };
            let dt = (step_end - self.now).as_secs_f64();
            for &ix in &self.active {
                self.flows[ix as usize].remaining_bits -= self.rates[ix as usize] * dt;
            }
            self.now = step_end;
            // Mark completions: exactly drained, or less than one
            // nanosecond of transmission left (the progress guarantee).
            let done: Vec<u32> = self
                .active
                .iter()
                .copied()
                .filter(|&ix| {
                    let remaining = self.flows[ix as usize].remaining_bits;
                    remaining <= 0.5 || remaining <= self.rates[ix as usize] * 1e-9
                })
                .collect();
            for &ix in &done {
                self.finish_flow(ix);
                events.push(FlowEvent {
                    flow: FlowId(ix as usize),
                    at: self.now,
                });
            }
            if !next.is_finite() && done.is_empty() {
                // Nothing will change before `until`.
                self.now = until;
                break;
            }
        }
        events
    }

    /// Retires a completed flow and releases its edge memberships.
    fn finish_flow(&mut self, ix: u32) {
        let f = &mut self.flows[ix as usize];
        f.finished = Some(self.now);
        f.remaining_bits = 0.0;
        self.rates[ix as usize] = 0.0;
        self.detach(ix);
        self.active.remove(&ix);
    }

    /// Runs until every flow completes or stalls (zero rate). Returns all
    /// completions.
    ///
    /// Stalled flows (rate 0 with bytes remaining) terminate the loop to
    /// avoid spinning forever; the caller can detect them via
    /// [`FlowSim::active_flows`].
    pub fn run_until_idle(&mut self) -> Vec<FlowEvent> {
        let mut events = Vec::new();
        while let Some(target) = self.next_completion_time() {
            events.extend(self.advance_to(target));
        }
        events
    }

    /// Aggregate instantaneous rate over a set of flows (for throughput
    /// time-series).
    #[must_use]
    pub fn aggregate_rate(&mut self, flows: &[FlowId]) -> Bandwidth {
        self.ensure_rates();
        let sum: f64 = flows.iter().filter_map(|f| self.rates.get(f.0)).sum();
        Bandwidth::bps(sum as u64)
    }

    /// Brings every stored rate up to date, re-solving only the
    /// saturation components reachable from dirty edges.
    fn ensure_rates(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.stats.solves += 1;
        if self.force_full {
            self.stats.full_solves += 1;
            self.stats.flows_resolved += self.active.len() as u64;
            self.stats.edges_resolved += self.edges.len() as u64;
            let rates = self.solve_full_rates();
            for &ix in &self.active {
                self.rates[ix as usize] = rates[ix as usize];
            }
            for (e, edge) in self.edges.iter_mut().enumerate() {
                edge.refresh_load(&self.rates);
                edge.dirty = false;
                stamp(&mut self.changed, &mut edge.changed, e as u32);
            }
            self.dirty.clear();
            return;
        }
        self.solve_incremental();
        if self.check_full {
            self.stats.full_solves += 1;
            self.assert_matches_reference();
        }
    }

    /// The incremental path: component discovery from the dirty edges,
    /// a replay of the last solve's bottleneck order for as long as it
    /// provably still holds, then heap-driven progressive filling
    /// restricted to the component. Performs the reference solver's
    /// floating-point operations in the reference order, so results are
    /// bit-identical to a full solve.
    fn solve_incremental(&mut self) {
        let FlowSim {
            edges,
            flows,
            rates,
            paths,
            dirty,
            changed,
            stats,
            scratch: sc,
            ..
        } = self;
        sc.rem.resize(edges.len(), 0.0);
        sc.count.resize(edges.len(), 0);
        sc.edge_seen.resize(edges.len(), 0);
        sc.edge_touched.resize(edges.len(), false);
        sc.heap.pos.resize(edges.len(), ABSENT);
        sc.flow_stamp.resize(flows.len(), 0);
        sc.epoch += 1;
        let epoch = sc.epoch;

        // --- Component discovery: BFS over flow↔edge incidence from the
        // dirty edges. Only flows transitively sharing an edge with a
        // dirty edge can see their max-min rate change. An edge enters
        // with fresh waterfilling state (identical to the reference
        // solver's initial state restricted to the component) and each
        // discovered flow counts itself onto its path. A loaded dirty
        // edge is a seed and keeps its flag until the solve ends: the
        // replay tells the seeds apart by it.
        sc.comp_edges.clear();
        for e in dirty.drain(..) {
            let edge = &mut edges[e as usize];
            if edge.members.is_empty() {
                // No active flows cross it: its load is zero and nothing
                // else depends on it.
                edge.dirty = false;
                edge.load_bps = 0.0;
                stamp(changed, &mut edge.changed, e);
            } else {
                sc.edge_seen[e as usize] = epoch;
                sc.rem[e as usize] = edge.capacity_bps;
                sc.count[e as usize] = 0;
                sc.comp_edges.push(e);
            }
        }
        if sc.comp_edges.is_empty() {
            // Nothing to fill, and the log stays that of the last solve
            // that froze a flow.
            return;
        }
        let seeds = sc.comp_edges.len();
        // The log may replay only if every component flow was frozen by
        // the solve that wrote it, or was put on a path since (and so
        // crosses dirty edges only).
        let logged = FROZEN | sc.log_epoch;
        let mut warm = sc.log_epoch != 0;
        let mut unfixed = 0usize;
        let mut head = 0;
        while let Some(&e) = sc.comp_edges.get(head) {
            head += 1;
            for &(fx, _) in &edges[e as usize].members {
                let mark = &mut sc.flow_stamp[fx as usize];
                if *mark == epoch {
                    continue;
                }
                warm &= *mark == logged || *mark == 0;
                *mark = epoch;
                unfixed += 1;
                for &pe in &paths[flows[fx as usize].path()] {
                    if sc.edge_seen[pe as usize] != epoch {
                        sc.edge_seen[pe as usize] = epoch;
                        sc.rem[pe as usize] = edges[pe as usize].capacity_bps;
                        sc.count[pe as usize] = 0;
                        sc.comp_edges.push(pe);
                    }
                    sc.count[pe as usize] += 1;
                }
            }
        }
        stats.flows_resolved += unfixed as u64;
        stats.edges_resolved += sc.comp_edges.len() as u64;
        stats.max_component_flows = stats.max_component_flows.max(unfixed as u64);

        // --- Replay (DESIGN §12.1). The heap starts with the seeds only.
        // While the replay holds, every clean edge has the share it had
        // at the same round of the logged solve, so the logged pick is
        // still the least clean key: it is this round's pick unless a
        // dirty key is below it. That, or a dirty logged edge, is where
        // the two solves part. Logged edges outside the component are
        // skipped: their flows share no edge with it.
        for &e in &sc.comp_edges[..seeds] {
            sc.heap
                .set(e, fair_bits(sc.rem[e as usize], sc.count[e as usize]));
        }
        let mut kept = 0;
        let mut next = 0;
        while warm && unfixed > 0 {
            let Some(&e) = sc.log.get(next) else {
                break;
            };
            next += 1;
            if sc.edge_seen[e as usize] != epoch {
                continue;
            }
            if edges[e as usize].dirty {
                break;
            }
            debug_assert!(sc.count[e as usize] > 0, "a replayed bottleneck is loaded");
            let bits = fair_bits(sc.rem[e as usize], sc.count[e as usize]);
            if sc.heap.slots.first().is_some_and(|&top| top < (bits, e)) {
                break;
            }
            sc.log[kept] = e;
            kept += 1;
            let members = &edges[e as usize].members;
            unfixed -= sc.freeze(members, f64::from_bits(bits), flows, paths, rates);
            sc.settle();
        }
        sc.log.truncate(kept);
        // The clean edges still loaded join the heap at their current
        // share (every one of them, on a cold solve).
        for &e in &sc.comp_edges[seeds..] {
            if sc.count[e as usize] > 0 {
                sc.heap
                    .set(e, fair_bits(sc.rem[e as usize], sc.count[e as usize]));
            }
        }

        // --- Progressive filling. Each round pops the bottleneck (the
        // loaded edge with the minimal fair share, lowest index on
        // ties — exactly the reference scan's pick, because every loaded
        // edge holds exactly one entry, at its current share), freezes
        // its unfixed flows in ascending flow order, and charges each
        // frozen flow's rate along its path in path order. Edges whose
        // share moved have their entry moved before the next pop, or
        // dropped once no unfixed flow loads them.
        while unfixed > 0 {
            sc.settle();
            let (bits, e) = sc.heap.pop().expect("an unfixed flow loads an edge");
            sc.log.push(e);
            let members = &edges[e as usize].members;
            unfixed -= sc.freeze(members, f64::from_bits(bits), flows, paths, rates);
        }
        // The last round's moves are never settled: nothing is left to pop.
        for pe in sc.touched.drain(..) {
            sc.edge_touched[pe as usize] = false;
        }
        sc.heap.clear();
        sc.log_epoch = epoch;
        stats.rounds += sc.log.len() as u64;
        stats.rounds_replayed += kept as u64;

        for &e in &sc.comp_edges {
            let edge = &mut edges[e as usize];
            edge.dirty = false; // a seed's flag ends with its solve
            edge.refresh_load(rates);
            stamp(changed, &mut edge.changed, e);
        }
    }

    /// The O(F·E) reference: from-scratch progressive filling over every
    /// active flow, exactly as the pre-incremental solver computed it.
    /// Returns the rate for every flow slot (finished slots stay 0).
    fn solve_full_rates(&self) -> Vec<f64> {
        let n_edges = self.edges.len();
        let path = |ix: usize| &self.paths[self.flows[ix].path()];
        let mut rates: Vec<f64> = vec![0.0; self.flows.len()];
        let active: Vec<usize> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.finished.is_none())
            .map(|(ix, _)| ix)
            .collect();
        let mut fixed: Vec<bool> = vec![false; self.flows.len()];
        // Flows with empty paths are unconstrained: give them an
        // effectively infinite rate so they complete immediately.
        for &ix in &active {
            if path(ix).is_empty() {
                rates[ix] = UNCONSTRAINED_BPS;
                fixed[ix] = true;
            }
        }
        let mut remaining_cap: Vec<f64> = self.edges.iter().map(|e| e.capacity_bps).collect();
        let mut unfixed_count: Vec<usize> = vec![0; n_edges];
        loop {
            unfixed_count.fill(0);
            for &ix in &active {
                if !fixed[ix] {
                    for &e in path(ix) {
                        unfixed_count[e as usize] += 1;
                    }
                }
            }
            // Bottleneck edge: minimal fair share among loaded edges.
            let mut best: Option<(f64, usize)> = None;
            for e in 0..n_edges {
                if unfixed_count[e] > 0 {
                    let fair = (remaining_cap[e]).max(0.0) / unfixed_count[e] as f64;
                    if best.is_none_or(|(bf, _)| fair < bf) {
                        best = Some((fair, e));
                    }
                }
            }
            let Some((fair, bottleneck)) = best else {
                break;
            };
            // Freeze every unfixed flow crossing the bottleneck at the
            // fair share; charge their rate to all their edges.
            for &ix in &active {
                if !fixed[ix] && path(ix).contains(&(bottleneck as u32)) {
                    rates[ix] = fair;
                    fixed[ix] = true;
                    for &e in path(ix) {
                        remaining_cap[e as usize] -= fair;
                    }
                }
            }
        }
        rates
    }

    /// Debug gate: every active flow's incremental rate must equal the
    /// reference solver's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on the first divergence (a solver bug by definition).
    fn assert_matches_reference(&self) {
        let reference = self.solve_full_rates();
        for &ix in &self.active {
            let got = self.rates[ix as usize];
            let want = reference[ix as usize];
            assert!(
                got.to_bits() == want.to_bits(),
                "incremental solver diverged on flow {ix}: got {got} ({:#x}), reference {want} ({:#x})",
                got.to_bits(),
                want.to_bits(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], 125_000_000); // 1 Gbit.
        assert_eq!(s.flow_rate(f).bits_per_sec(), 1_000_000_000);
        let events = s.run_until_idle();
        assert_eq!(events.len(), 1);
        let done = s.finished_at(f).unwrap().as_secs_f64();
        assert!((done - 1.0).abs() < 1e-6, "finished at {done}");
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f1 = s.start_flow(vec![e], 125_000_000);
        let f2 = s.start_flow(vec![e], 125_000_000);
        assert_eq!(s.flow_rate(f1).bits_per_sec(), 500_000_000);
        assert_eq!(s.flow_rate(f2).bits_per_sec(), 500_000_000);
        s.run_until_idle();
        assert!((s.finished_at(f1).unwrap().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn early_finisher_releases_bandwidth() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let small = s.start_flow(vec![e], 62_500_000); // 0.5 Gbit.
        let big = s.start_flow(vec![e], 125_000_000); // 1.0 Gbit.
        s.run_until_idle();
        // Small: shares 0.5 G for 1 s → done at t=1.
        // Big: 0.5 Gbit left at t=1, then full 1 G → done at t=1.5.
        assert!((s.finished_at(small).unwrap().as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((s.finished_at(big).unwrap().as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn max_min_not_just_proportional() {
        // Classic 3-flow example: flows A (e1), B (e2), C (e1+e2),
        // caps e1=1, e2=2 → C and A bottleneck on e1 at 0.5; B gets 1.5.
        let mut s = FlowSim::new();
        let e1 = s.add_edge(Bandwidth::gbps(1));
        let e2 = s.add_edge(Bandwidth::gbps(2));
        let a = s.start_flow(vec![e1], u64::MAX / 16);
        let b = s.start_flow(vec![e2], u64::MAX / 16);
        let c = s.start_flow(vec![e1, e2], u64::MAX / 16);
        assert_eq!(s.flow_rate(a).bits_per_sec(), 500_000_000);
        assert_eq!(s.flow_rate(c).bits_per_sec(), 500_000_000);
        assert_eq!(s.flow_rate(b).bits_per_sec(), 1_500_000_000);
    }

    #[test]
    fn capacity_change_recomputes() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], u64::MAX / 16);
        assert_eq!(s.flow_rate(f).bits_per_sec(), 1_000_000_000);
        s.set_capacity(e, Bandwidth::mbps(100));
        assert_eq!(s.flow_rate(f).bits_per_sec(), 100_000_000);
        s.set_capacity(e, Bandwidth::ZERO);
        assert_eq!(s.flow_rate(f).bits_per_sec(), 0);
        // Starved flow does not complete.
        let events = s.advance_to(t(10.0));
        assert!(events.is_empty());
        assert_eq!(s.active_flows(), 1);
    }

    #[test]
    fn reroute_moves_load() {
        let mut s = FlowSim::new();
        let e1 = s.add_edge(Bandwidth::gbps(1));
        let e2 = s.add_edge(Bandwidth::gbps(1));
        let f1 = s.start_flow(vec![e1], u64::MAX / 16);
        let f2 = s.start_flow(vec![e1], u64::MAX / 16);
        assert_eq!(s.flow_rate(f1).bits_per_sec(), 500_000_000);
        s.reroute(f2, vec![e2]);
        assert_eq!(s.flow_rate(f1).bits_per_sec(), 1_000_000_000);
        assert_eq!(s.flow_rate(f2).bits_per_sec(), 1_000_000_000);
    }

    #[test]
    fn advance_to_partial_progress() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], 125_000_000); // 1 s of work.
        let events = s.advance_to(t(0.25));
        assert!(events.is_empty());
        assert_eq!(s.now(), t(0.25));
        let events = s.advance_to(t(2.0));
        assert_eq!(events.len(), 1);
        assert!((s.finished_at(f).unwrap().as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(s.now(), t(2.0));
    }

    #[test]
    fn empty_path_completes_instantly() {
        let mut s = FlowSim::new();
        let f = s.start_flow(vec![], 1_000_000);
        let events = s.advance_to(t(0.001));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flow, f);
    }

    #[test]
    fn staged_arrival_dependency() {
        // Orchestration pattern used by the HiBench harness: stage 2
        // starts when stage 1 finishes.
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let s1 = s.start_flow(vec![e], 125_000_000);
        let done1 = s.run_until_idle();
        assert_eq!(done1.len(), 1);
        assert_eq!(done1[0].flow, s1);
        let s2 = s.start_flow(vec![e], 125_000_000);
        s.run_until_idle();
        let total = s.finished_at(s2).unwrap().as_secs_f64();
        assert!((total - 2.0).abs() < 1e-5, "got {total}");
    }

    #[test]
    fn reroute_mid_flow_conserves_bytes() {
        // Move a flow to a new path halfway through: total completion
        // time must reflect both phases exactly.
        let mut s = FlowSim::new();
        let slow = s.add_edge(Bandwidth::mbps(500));
        let fast = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![slow], 125_000_000); // 1 Gbit total.
                                                       // 1 s at 500 Mbps moves half the bits.
        s.advance_to(t(1.0));
        s.reroute(f, vec![fast]);
        s.run_until_idle();
        // Remaining 0.5 Gbit at 1 Gbps = 0.5 s ⇒ done at 1.5 s.
        let done = s.finished_at(f).unwrap().as_secs_f64();
        assert!((done - 1.5).abs() < 1e-6, "finished at {done}");
    }

    #[test]
    fn reroute_after_finish_is_a_noop() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], 1_000);
        s.run_until_idle();
        let done = s.finished_at(f).unwrap();
        s.reroute(f, vec![]);
        assert_eq!(s.finished_at(f), Some(done));
    }

    #[test]
    fn sub_nanosecond_remainders_terminate() {
        // Regression: a flow whose remaining transfer time truncates to
        // zero nanoseconds must still complete (not spin forever).
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], 1); // 8 bits = 8 ns.
        let events = s.run_until_idle();
        assert_eq!(events.len(), 1);
        assert!(s.finished_at(f).is_some());
        // And a zero-byte flow.
        let z = s.start_flow(vec![e], 0);
        s.run_until_idle();
        assert!(s.finished_at(z).is_some());
    }

    #[test]
    fn aggregate_rate_sums_active() {
        let mut s = FlowSim::new();
        let e1 = s.add_edge(Bandwidth::gbps(1));
        let e2 = s.add_edge(Bandwidth::gbps(1));
        let f1 = s.start_flow(vec![e1], u64::MAX / 16);
        let f2 = s.start_flow(vec![e2], u64::MAX / 16);
        assert_eq!(s.aggregate_rate(&[f1, f2]).bits_per_sec(), 2_000_000_000);
    }

    #[test]
    fn incremental_matches_reference_under_churn() {
        // Exercise arrivals, departures, re-routes and capacity changes
        // with the divergence gate armed: any drift from the reference
        // solver panics inside ensure_rates.
        let mut s = FlowSim::new();
        s.set_check_full_solve(true);
        let edges: Vec<EdgeId> = (0..8)
            .map(|i| s.add_edge(Bandwidth::mbps(100 + 50 * i)))
            .collect();
        let mut flows = Vec::new();
        for i in 0..24usize {
            let a = edges[i % 8];
            let b = edges[(i * 3 + 1) % 8];
            let f = s.start_flow(vec![a, b], 40_000_000 + (i as u64) * 1_000_000);
            flows.push(f);
            let _ = s.flow_rate(f);
        }
        s.advance_to(t(0.5));
        s.set_capacity(edges[2], Bandwidth::mbps(10));
        let _ = s.flow_rate(flows[2]);
        s.reroute(flows[5], vec![edges[0], edges[7]]);
        s.advance_to(t(1.5));
        s.set_capacity(edges[2], Bandwidth::ZERO);
        s.advance_to(t(2.0));
        s.set_capacity(edges[2], Bandwidth::mbps(400));
        let done = s.run_until_idle();
        assert_eq!(done.len() + s.active_flows(), 24);
        assert_eq!(s.active_flows(), 0, "no flow should starve here");
    }

    #[test]
    fn forced_full_solve_matches_incremental() {
        // Same scripted run under both solver modes: identical rates and
        // identical completion times, bit for bit.
        let script = |s: &mut FlowSim| {
            let e1 = s.add_edge(Bandwidth::gbps(1));
            let e2 = s.add_edge(Bandwidth::mbps(300));
            let e3 = s.add_edge(Bandwidth::mbps(700));
            let a = s.start_flow(vec![e1, e2], 30_000_000);
            let b = s.start_flow(vec![e2, e3], 50_000_000);
            let c = s.start_flow(vec![e1, e3], 70_000_000);
            s.advance_to(t(0.3));
            s.set_capacity(e2, Bandwidth::mbps(150));
            s.run_until_idle();
            [a, b, c].map(|f| s.finished_at(f).unwrap())
        };
        let mut inc = FlowSim::new();
        let mut full = FlowSim::new();
        full.set_force_full_solve(true);
        assert_eq!(script(&mut inc), script(&mut full));
        assert_eq!(full.solver_stats().full_solves, full.solver_stats().solves);
        assert_eq!(inc.solver_stats().full_solves, 0);
    }

    #[test]
    fn disjoint_components_solve_independently() {
        // Two flows on unrelated edges: churn on one must not re-solve
        // the other (that is the whole point of incrementality).
        let mut s = FlowSim::new();
        let e1 = s.add_edge(Bandwidth::gbps(1));
        let e2 = s.add_edge(Bandwidth::gbps(1));
        let f1 = s.start_flow(vec![e1], u64::MAX / 16);
        let f2 = s.start_flow(vec![e2], u64::MAX / 16);
        let _ = s.flow_rate(f1);
        let base = s.solver_stats().flows_resolved;
        // Touch only e2's component.
        s.set_capacity(e2, Bandwidth::mbps(500));
        let _ = s.flow_rate(f2);
        let delta = s.solver_stats().flows_resolved - base;
        assert_eq!(delta, 1, "only f2's component should re-solve");
        assert_eq!(s.flow_rate(f1).bits_per_sec(), 1_000_000_000);
        assert_eq!(s.flow_rate(f2).bits_per_sec(), 500_000_000);
    }

    #[test]
    fn edge_load_and_utilization_track_allocations() {
        let mut s = FlowSim::new();
        let shared = s.add_edge(Bandwidth::gbps(1));
        let spur = s.add_edge(Bandwidth::gbps(2));
        let _f1 = s.start_flow(vec![shared], u64::MAX / 16);
        let _f2 = s.start_flow(vec![shared, spur], u64::MAX / 16);
        assert!((s.edge_load_bps(shared) - 1e9).abs() < 1.0);
        assert!((s.edge_utilization(shared) - 1.0).abs() < 1e-9);
        assert!((s.edge_utilization(spur) - 0.25).abs() < 1e-9);
        // Dead edge carries nothing.
        s.set_capacity(spur, Bandwidth::ZERO);
        assert_eq!(s.edge_utilization(spur), 0.0);
    }

    #[test]
    fn changed_edges_drain_reports_touched_components() {
        let mut s = FlowSim::new();
        let e1 = s.add_edge(Bandwidth::gbps(1));
        let e2 = s.add_edge(Bandwidth::gbps(1));
        let f1 = s.start_flow(vec![e1], u64::MAX / 16);
        let _f2 = s.start_flow(vec![e2], u64::MAX / 16);
        assert_eq!(s.take_changed_edges(), vec![e1, e2]);
        assert!(s.take_changed_edges().is_empty(), "drain clears the set");
        s.reroute(f1, vec![e2]);
        assert_eq!(s.take_changed_edges(), vec![e1, e2]);
    }

    #[test]
    fn next_completion_time_matches_advance() {
        let mut s = FlowSim::new();
        let e = s.add_edge(Bandwidth::gbps(1));
        let f = s.start_flow(vec![e], 125_000_000); // 1 s of work.
        let horizon = s.next_completion_time().unwrap();
        let events = s.advance_to(horizon);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flow, f);
        assert_eq!(events[0].at, horizon);
        assert!(s.next_completion_time().is_none());
    }

    #[test]
    fn drained_flow_on_dead_edge_finishes_under_both_drivers() {
        // Regression: `run_until_idle` folded its own completion horizon
        // with a `rate > 0` filter, so a flow with nothing left to send
        // on a zero-capacity edge stayed active forever, while
        // `advance_to` / `next_completion_time` retired it.
        let drained_on_dead_edge = || {
            let mut s = FlowSim::new();
            let dead = s.add_edge(Bandwidth::ZERO);
            let f = s.start_flow(vec![dead], 0);
            (s, f)
        };
        let (mut s, f) = drained_on_dead_edge();
        assert_eq!(s.run_until_idle().len(), 1);
        assert_eq!((s.active_flows(), s.finished_at(f)), (0, Some(s.now())));
        let (mut s, f) = drained_on_dead_edge();
        let horizon = s.next_completion_time().expect("a drained flow completes");
        assert_eq!(s.advance_to(horizon).len(), 1);
        assert_eq!((s.active_flows(), s.finished_at(f)), (0, Some(horizon)));
        // Bytes still owed on a dead edge is a stall, not a completion.
        let mut s = FlowSim::new();
        let dead = s.add_edge(Bandwidth::ZERO);
        let _ = s.start_flow(vec![dead], 1);
        assert!(s.run_until_idle().is_empty());
        assert_eq!(s.active_flows(), 1);
    }

    #[test]
    fn multi_component_churn_pins_solver_stats() {
        // Three disjoint 4-edge islands, six flows each (two edges per
        // flow, so an island is one saturation component), then churn
        // that touches one island, two islands, bridges two of them, and
        // finally raises an edge in the bridged component. The exact work
        // counters are pinned: component accounting and the replay of
        // the last solve's bottleneck order must not drift.
        let mut s = FlowSim::new();
        let edges: Vec<EdgeId> = (0..12)
            .map(|i| s.add_edge(Bandwidth::mbps(100 + 10 * i)))
            .collect();
        let island = |k: usize, i: usize| edges[4 * k + i % 4];
        let mut flows = Vec::new();
        for k in 0..3 {
            for i in 0..6 {
                flows.push(s.start_flow(vec![island(k, i), island(k, i + 1)], u64::MAX / 16));
            }
        }
        let stats = |s: &mut FlowSim| {
            let _ = s.aggregate_rate(&[]);
            let st = s.solver_stats();
            (
                st.solves,
                st.flows_resolved,
                st.edges_resolved,
                st.max_component_flows,
                st.rounds,
                st.rounds_replayed,
            )
        };
        // One solve over all three islands at once.
        assert_eq!(stats(&mut s), (1, 18, 12, 18, 9, 0));
        // Nothing dirty: a query is not a solve.
        assert_eq!(stats(&mut s), (1, 18, 12, 18, 9, 0));
        // Island 1 alone; its dirty edge's share is below every logged
        // pick, so nothing replays.
        s.set_capacity(island(1, 0), Bandwidth::mbps(5));
        assert_eq!(stats(&mut s), (2, 24, 16, 18, 11, 0));
        // Islands 0 and 2 in one solve; island 1 untouched. Their flows
        // were frozen before the solve that wrote the log: cold.
        s.set_capacity(island(0, 2), Bandwidth::ZERO);
        s.reroute(flows[12], vec![island(2, 3)]);
        assert_eq!(stats(&mut s), (3, 36, 24, 18, 15, 0));
        // An idle edge carries no component.
        let spare = s.add_edge(Bandwidth::gbps(1));
        s.set_capacity(spare, Bandwidth::mbps(1));
        assert_eq!(stats(&mut s), (4, 36, 24, 18, 15, 0));
        // Bridge islands 0 and 1 through the spare edge: one component
        // of twelve flows over nine edges, cold again.
        s.reroute(flows[0], vec![island(0, 0), spare, island(1, 0)]);
        assert_eq!(stats(&mut s), (5, 48, 33, 18, 20, 0));
        // A raised edge whose share never reaches a logged pick: the
        // whole log replays.
        s.set_capacity(island(1, 3), Bandwidth::gbps(1));
        assert_eq!(stats(&mut s), (6, 60, 42, 18, 25, 5));
        assert_eq!(s.solver_stats().full_solves, 0);
        assert_eq!(
            s.take_changed_edges(),
            edges.iter().copied().chain([spare]).collect::<Vec<_>>()
        );
    }

    /// A simulator whose every incremental solve is checked against
    /// the reference, bit for bit.
    fn checked() -> FlowSim {
        let mut s = FlowSim::new();
        s.set_check_full_solve(true);
        s
    }

    /// Forces a solve; returns the `(rounds, rounds_replayed)` it added.
    fn solve_rounds(s: &mut FlowSim) -> (u64, u64) {
        let before = s.solver_stats();
        let _ = s.aggregate_rate(&[]);
        let after = s.solver_stats();
        (
            after.rounds - before.rounds,
            after.rounds_replayed - before.rounds_replayed,
        )
    }

    const LONG: u64 = u64::MAX / 16;

    #[test]
    fn bridging_flow_finishing_splits_the_component() {
        // Shares: p 10, s 20, r 490, q 500 — so the log is [p, s, r, q].
        let mut s = checked();
        let [p, q, r, x] = [10, 1_000, 1_000, 20].map(|m| s.add_edge(Bandwidth::mbps(m)));
        let f0 = s.start_flow(vec![p, q], LONG);
        let f1 = s.start_flow(vec![q], LONG);
        let bridge = s.start_flow(vec![q, r], 1_000);
        let f2 = s.start_flow(vec![r, x], LONG);
        let f3 = s.start_flow(vec![r], LONG);
        assert_eq!(solve_rounds(&mut s), (4, 0));
        let horizon = s.next_completion_time().unwrap();
        assert_eq!(s.advance_to(horizon)[0].flow, bridge);
        // Both halves re-solve at once; p and s replay, dirty r stops it.
        assert_eq!(solve_rounds(&mut s), (4, 2));
        let rates = [f0, f1, f2, f3].map(|f| s.flow_rate(f).bits_per_sec() / 1_000_000);
        assert_eq!(rates, [10, 990, 20, 980]);
    }

    #[test]
    fn merging_arrival_takes_the_cold_path() {
        let mut s = checked();
        let [a1, a2, b1, b2] = [100, 300, 50, 400].map(|m| s.add_edge(Bandwidth::mbps(m)));
        s.start_flow(vec![a1, a2], LONG);
        s.start_flow(vec![a2], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // Island b is solved on its own; island a's log entries are
        // outside that component and are skipped.
        s.start_flow(vec![b1, b2], LONG);
        s.start_flow(vec![b2], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // The arrival joins the islands: island a's flows were frozen by
        // an earlier solve than the one that wrote the log.
        s.start_flow(vec![a2, b2], LONG);
        assert_eq!(solve_rounds(&mut s), (4, 0));
        // Now one log covers the merged component: b1 replays, and the
        // dirty a1 stops it.
        s.set_capacity(a1, Bandwidth::mbps(90));
        assert_eq!(solve_rounds(&mut s), (4, 1));
    }

    #[test]
    fn trunk_drop_and_restore_replay_as_far_as_they_may() {
        // Shares: e0 100, e2 150, trunk 500 — the log is [e0, e2].
        let mut s = checked();
        let [e0, trunk, e2] = [100, 1_000, 300].map(|m| s.add_edge(Bandwidth::mbps(m)));
        let f0 = s.start_flow(vec![e0, trunk], LONG);
        s.start_flow(vec![trunk, e2], LONG);
        s.start_flow(vec![e2], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // A dead trunk's share 0 is below the first logged pick.
        s.set_capacity(trunk, Bandwidth::ZERO);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        assert_eq!(s.flow_rate(f0).bits_per_sec(), 0);
        // Restored, it is the first logged pick and dirty.
        s.set_capacity(trunk, Bandwidth::mbps(1_000));
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // A flap no solve saw leaves its share where it was: the whole
        // log replays.
        s.set_capacity(trunk, Bandwidth::ZERO);
        s.set_capacity(trunk, Bandwidth::mbps(1_000));
        assert_eq!(solve_rounds(&mut s), (2, 2));
        assert_eq!(s.flow_rate(f0).bits_per_sec(), 100_000_000);
    }

    #[test]
    fn reroute_onto_the_same_path_replays_up_to_its_edge() {
        // Shares: a 10, b 45, c 955 — the log is [a, b, c].
        let mut s = checked();
        let [a, b, c] = [10, 100, 1_000].map(|m| s.add_edge(Bandwidth::mbps(m)));
        let f0 = s.start_flow(vec![a, b], LONG);
        s.start_flow(vec![b], LONG);
        s.start_flow(vec![b, c], LONG);
        let f3 = s.start_flow(vec![c], LONG);
        assert_eq!(solve_rounds(&mut s), (3, 0));
        s.reroute(f3, vec![c]);
        assert_eq!(solve_rounds(&mut s), (3, 2));
        s.reroute(f0, vec![a, b]);
        assert_eq!(solve_rounds(&mut s), (3, 0));
        assert_eq!(s.flow_rate(f3).bits_per_sec(), 955_000_000);
    }

    #[test]
    fn flow_rerouted_from_another_island_keeps_the_log_usable() {
        let mut s = checked();
        let [a, b1, b2] = [100, 50, 400].map(|m| s.add_edge(Bandwidth::mbps(m)));
        let h = s.start_flow(vec![a], LONG);
        assert_eq!(solve_rounds(&mut s), (1, 0));
        s.start_flow(vec![b1, b2], LONG);
        s.start_flow(vec![b2], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // `h` was frozen by the solve before the log's, but its new path
        // crosses dirty edges only.
        s.reroute(h, vec![b2]);
        assert_eq!(solve_rounds(&mut s), (2, 1));
        assert_eq!(s.flow_rate(h).bits_per_sec(), 175_000_000);
    }

    #[test]
    fn flow_crossing_an_edge_twice_replays() {
        // Shares: x 100/3 (the looping flow counts twice), y 500.
        let mut s = checked();
        let [x, y, z] = [100, 1_000, 2_000].map(|m| s.add_edge(Bandwidth::mbps(m)));
        let looping = s.start_flow(vec![x, y, x], LONG);
        s.start_flow(vec![y], LONG);
        s.start_flow(vec![x], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // x replays, charging the looping flow twice; dirty y stops it.
        let late = s.start_flow(vec![y, z], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 1));
        assert_eq!(s.flow_rate(looping).bits_per_sec(), 33_333_333);
        assert!((s.edge_load_bps(x) - 1e8).abs() < 1.0);
        assert_eq!(s.flow_rate(late).bits_per_sec(), 483_333_333);
    }

    #[test]
    fn empty_path_flows_stay_out_of_the_replay() {
        // Shares: a 50, b 250 — the log is [a, b].
        let mut s = checked();
        let [a, b] = [100, 300].map(|m| s.add_edge(Bandwidth::mbps(m)));
        s.start_flow(vec![a], LONG);
        s.start_flow(vec![a, b], LONG);
        let f2 = s.start_flow(vec![b], LONG);
        assert_eq!(solve_rounds(&mut s), (2, 0));
        // No edge is dirty: no solve at all.
        let local = s.start_flow(vec![], 1_000);
        assert_eq!(s.solver_stats().solves, 1);
        // Off its only edge: a replays, and nothing is left for b.
        s.reroute(f2, vec![]);
        assert_eq!(solve_rounds(&mut s), (1, 1));
        let events = s.advance_to(t(0.001));
        let done: Vec<FlowId> = events.iter().map(|e| e.flow).collect();
        assert_eq!(done, [f2, local]);
        assert_eq!(
            s.solver_stats().solves,
            2,
            "an empty path leaves nothing dirty"
        );
    }

    #[test]
    fn solver_mode_toggle_replays_no_stale_log() {
        let mut s = checked();
        let edges: Vec<EdgeId> = (0..6)
            .map(|i| s.add_edge(Bandwidth::mbps(100 + 70 * i)))
            .collect();
        let flows: Vec<FlowId> = (0..12)
            .map(|i| s.start_flow(vec![edges[i % 6], edges[(i * 5 + 2) % 6]], LONG))
            .collect();
        let (rounds, _) = solve_rounds(&mut s);
        s.set_capacity(edges[5], Bandwidth::mbps(900));
        assert!(solve_rounds(&mut s).1 > 0, "a clean prefix replays");
        s.set_force_full_solve(true);
        s.reroute(flows[3], vec![edges[0]]);
        s.set_capacity(edges[1], Bandwidth::mbps(40));
        assert_eq!(
            solve_rounds(&mut s),
            (0, 0),
            "forced solves count no rounds"
        );
        s.reroute(flows[3], vec![edges[3], edges[5]]);
        s.set_force_full_solve(false);
        assert_eq!(solve_rounds(&mut s), (rounds, 0));
        s.set_capacity(edges[5], Bandwidth::mbps(800));
        assert!(solve_rounds(&mut s).1 > 0, "the rewritten log replays");
        let st = s.solver_stats();
        assert_eq!(
            st.full_solves, st.solves,
            "every solve was checked or forced"
        );
    }

    #[test]
    fn bottleneck_heap_matches_ordered_set_model() {
        // Random insert / raise / lower / remove / pop against a
        // `BTreeSet<(key, edge)>` oracle. After every step the position
        // table must name each live entry's slot and nothing else, the
        // heap order must hold, and the two minima must agree.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const EDGES: u32 = 48;
        let mut rng = StdRng::seed_from_u64(14);
        let mut heap = BottleneckHeap::default();
        heap.pos.resize(EDGES as usize, ABSENT);
        let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
        let mut key_of: Vec<Option<u64>> = vec![None; EDGES as usize];
        for step in 0..20_000 {
            let edge = rng.gen_range(0..EDGES);
            // Few distinct keys, so ties on the edge index are common.
            let key = rng.gen_range(0..32u64);
            match rng.gen_range(0..8) {
                0..=4 => {
                    if let Some(old) = key_of[edge as usize].replace(key) {
                        model.remove(&(old, edge));
                    }
                    model.insert((key, edge));
                    heap.set(edge, key);
                }
                5 => {
                    if let Some(old) = key_of[edge as usize].take() {
                        model.remove(&(old, edge));
                    }
                    heap.remove(edge);
                }
                _ => {
                    let want = model.pop_first();
                    if let Some((_, e)) = want {
                        key_of[e as usize] = None;
                    }
                    assert_eq!(heap.pop(), want, "step {step}");
                }
            }
            assert_eq!(heap.slots.len(), model.len(), "step {step}");
            assert_eq!(heap.slots.first(), model.first(), "step {step}");
            for (at, &(key, e)) in heap.slots.iter().enumerate() {
                assert_eq!(heap.pos[e as usize] as usize, at, "step {step}");
                assert_eq!(key_of[e as usize], Some(key), "step {step}");
                assert!(
                    heap.slots[at.saturating_sub(1) / 2] <= (key, e),
                    "step {step}"
                );
            }
            for e in 0..EDGES {
                assert_eq!(
                    heap.pos[e as usize] == ABSENT,
                    key_of[e as usize].is_none(),
                    "step {step}"
                );
            }
        }
        heap.clear();
        assert!(heap.slots.is_empty() && heap.pos.iter().all(|&p| p == ABSENT));
    }
}
