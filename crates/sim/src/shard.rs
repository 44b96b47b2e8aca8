//! Sharded multi-core execution: conservative-lookahead PDES on top of
//! per-cell [`World`] instances.
//!
//! # Model
//!
//! A [`ShardedWorld`] partitions the node set into `cells` (typically
//! one fat-tree pod per cell; see `dumbnet-topology`'s `partition`
//! module) and runs one [`World`] per cell. Every shard holds the
//! complete wiring table and node *slot* table, but only its own cell's
//! node objects — foreign slots are `None`, so dispatching to them is a
//! no-op. A packet whose destination lives on another shard detours
//! through the sending shard's outbox and is merged into the owner's
//! queue at the next synchronization barrier.
//!
//! # Conservative time windows
//!
//! Shards synchronize with the classic null-message/lookahead recipe:
//! with `L` = the minimum latency over all inter-cell wires, a packet
//! sent at time `t` cannot arrive on another shard before `t + L`
//! (arrival = departure + serialization + latency ≥ send + L). So if
//! the earliest pending event anywhere is at `m`, every shard can run
//! `[m, m + L)` without receiving anything new from its peers. The
//! window loop is:
//!
//! 1. route buffered crossings to their owner shards,
//! 2. `m` ← min pending event time across shards and crossings,
//! 3. every shard runs events with `t < min(m + L, horizon)` —
//!    concurrently when worker threads are available,
//! 4. repeat until idle or the horizon.
//!
//! Cross-shard arrivals always land at or after the current window end,
//! so the barrier in step 1 never misses a merge. When `L` would be
//! zero (a zero-latency inter-cell wire), the engine falls back to an
//! exact global `(time, key)` lockstep merge: one event at a time,
//! always the globally smallest, with crossings exchanged after every
//! dispatch. Slow, but exactly equivalent — the lookahead floor never
//! compromises correctness.
//!
//! # Determinism
//!
//! Identical results at any shard count follow from three invariants of
//! the underlying engine (see `engine`'s module docs):
//!
//! * event ordering keys are content-based (origin node + per-origin
//!   sequence number), so merged queues pop in the same order a single
//!   world would;
//! * application randomness is per-node and fault randomness is
//!   per-(wire, direction), each stream consumed by exactly one shard;
//! * admin events (crash, restart, link flips, loss changes)
//!   are mirrored into every shard under one shared key, with exactly
//!   one copy marked `counted`, so wire state stays consistent
//!   everywhere while merged counters match the single-world run.
//!
//! [`Engine`] is written once over a slice of cells, so a
//! `ShardedWorld` supplies only its shards and this window loop;
//! fabrics, chaos plans and invariant checkers drive it exactly as they
//! drive a [`World`]. `shards = 1` is the degenerate case and behaves
//! event-for-event like the single world it wraps.

use std::sync::mpsc;

use dumbnet_types::{SimDuration, SimTime};

use crate::engine::{Crossing, Engine, NodeAddr, WireId, World, WorldStats};

/// A world partitioned into cells, one [`World`] shard per cell,
/// synchronized with conservative time windows.
///
/// Construction mirrors [`World`]: add nodes (with explicit cells),
/// wire them, schedule work, run. Results — stats, link counters,
/// telemetry snapshots, node state — are byte-identical to a
/// single-world run of the same scenario at any shard count.
pub struct ShardedWorld {
    shards: Vec<World>,
    /// Minimum latency over the first `wires_seen` wires that cross
    /// cells (the PDES lookahead); `None` while none does (independent
    /// shards).
    lookahead: Option<SimDuration>,
    /// How many wires `lookahead` covers. Wiring goes straight to the
    /// cells, so each run folds in the wires added since the last one.
    wires_seen: usize,
    /// `Some(true)` forces worker threads, `Some(false)` forces
    /// sequential windows, `None` picks by available parallelism.
    parallel: Option<bool>,
}

/// One synchronization-window command to a shard worker thread: merge
/// the crossings, run the window ending at the time (exclusive), reply.
/// The drained crossings buffer becomes the worker's next outbox.
type WindowCmd = (Vec<Crossing>, SimTime);

/// A worker's reply after one window: `(shard, fired, outbox, next
/// peek)`.
type WindowReply = (usize, u64, Vec<Crossing>, Option<(SimTime, u64)>);

impl ShardedWorld {
    /// Creates an empty sharded world with `cells` shards (≥ 1), all
    /// deriving their randomness from one `seed` exactly as a single
    /// [`World::new`] would.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is zero.
    #[must_use]
    pub fn new(seed: u64, cells: usize) -> ShardedWorld {
        assert!(cells > 0, "a sharded world needs at least one cell");
        let cells_u32 = u32::try_from(cells).expect("cell count fits in u32");
        ShardedWorld {
            shards: (0..cells_u32)
                .map(|c| World::new_cell(seed, c, true))
                .collect(),
            lookahead: None,
            wires_seen: 0,
            parallel: None,
        }
    }

    /// Forces (`Some(true)`) or forbids (`Some(false)`) worker-thread
    /// window execution; `None` (the default) uses threads when the
    /// host has more than one core and there is more than one shard.
    /// Threaded and sequential execution produce identical results —
    /// this only selects how windows are driven.
    pub fn set_parallel(&mut self, parallel: Option<bool>) {
        self.parallel = parallel;
    }

    /// The PDES lookahead: minimum latency over inter-cell wires, or
    /// `None` while the shards are not connected to each other.
    #[must_use]
    pub fn lookahead(&self) -> Option<SimDuration> {
        (self.wires_seen..self.wire_count())
            .map(WireId::from_raw)
            .filter(|&w| {
                let ((a, _), (b, _)) = self.wire_endpoints(w);
                self.node_cell(a) != self.node_cell(b)
            })
            .map(|w| self.wire_params(w).latency)
            .chain(self.lookahead)
            .min()
    }

    /// Per-shard dispatched-event counts, for load-balance diagnostics
    /// (the parallel speedup bound is `total / max`).
    #[must_use]
    pub fn shard_event_counts(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.stats().events).collect()
    }

    fn owner(&self, node: NodeAddr) -> usize {
        self.node_cell(node) as usize
    }

    /// Routes every shard's buffered cross-shard arrivals to their
    /// owners. Each outbox is drained and handed back, so it keeps its
    /// capacity from window to window.
    fn exchange(&mut self) {
        for ix in 0..self.shards.len() {
            let mut out = self.shards[ix].swap_outbox(Vec::new());
            for c in out.drain(..) {
                let owner = self.owner(c.node);
                self.shards[owner].push_crossing(c);
            }
            self.shards[ix].swap_outbox(out);
        }
    }

    /// Whether window execution should use worker threads.
    // The sharded engine is the one place threads are allowed
    // (`clippy.toml`).
    #[allow(clippy::disallowed_methods)]
    fn threaded(&self) -> bool {
        if self.shards.len() < 2 {
            return false;
        }
        self.parallel
            .unwrap_or_else(|| std::thread::available_parallelism().is_ok_and(|p| p.get() > 1))
    }

    /// Runs conservative windows until the queues drain, the event
    /// budget is spent, or (when `until` is set) no pending event is ≤
    /// `until`.
    fn run_windows(&mut self, until: Option<SimTime>, max_events: u64) {
        // Fold the wires added since the last run into the cached bound.
        self.lookahead = self.lookahead();
        self.wires_seen = self.wire_count();
        for s in &mut self.shards {
            s.ensure_started();
        }
        // The window for the earliest event at `m` is [m, m + L). The
        // horizon caps it at `until + 1 ns` so events exactly at
        // `until` still run (run_until is inclusive).
        let horizon = until.map(|u| u.after(SimDuration::from_nanos(1)));
        match self.lookahead {
            None => {
                // No inter-cell wires (always so for one shard): the
                // shards are fully independent, so each can run to its
                // own horizon.
                let mut budget = max_events;
                for s in &mut self.shards {
                    match until {
                        Some(u) => {
                            s.run_until(u);
                        }
                        None => {
                            let before = s.stats().events;
                            s.run_to_idle(budget);
                            budget = budget.saturating_sub(s.stats().events - before);
                        }
                    }
                }
            }
            Some(l) if l == SimDuration::ZERO => self.run_lockstep(horizon, max_events),
            Some(l) => {
                if self.threaded() {
                    self.run_windows_threaded(l, horizon, max_events);
                } else {
                    self.run_windows_sequential(l, horizon, max_events);
                }
            }
        }
    }

    /// Sequential window loop (single-core hosts; also the reference
    /// implementation the threaded loop mirrors).
    fn run_windows_sequential(
        &mut self,
        lookahead: SimDuration,
        horizon: Option<SimTime>,
        max_events: u64,
    ) {
        let mut fired_total = 0u64;
        loop {
            self.exchange();
            let Some((m, _)) = self.shards.iter().filter_map(World::peek_head).min() else {
                break;
            };
            if horizon.is_some_and(|h| m >= h) || fired_total >= max_events {
                break;
            }
            let mut end = m.after(lookahead);
            if let Some(h) = horizon {
                end = end.min(h);
            }
            for s in &mut self.shards {
                fired_total += s.run_window(end);
            }
        }
    }

    /// Threaded window loop: one worker owns each shard for the
    /// duration of the run; the coordinator computes window bounds and
    /// routes crossings between barriers. Same window sequence — and
    /// therefore byte-identical results — as the sequential loop.
    // The sharded engine is the one place threads are allowed
    // (`clippy.toml`).
    #[allow(clippy::disallowed_methods)]
    fn run_windows_threaded(
        &mut self,
        lookahead: SimDuration,
        horizon: Option<SimTime>,
        max_events: u64,
    ) {
        // Crossings buffered from the previous window, per owner shard,
        // and one emptied buffer per shard to take their place. Three
        // buffers per shard circulate (pending → worker inbox → worker
        // outbox → spare → pending), so no window allocates one.
        let mut pending: Vec<Vec<Crossing>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut spare: Vec<Vec<Crossing>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        // Seed the initial exchange + peeks from the coordinator side.
        self.exchange();
        let mut peeks: Vec<Option<(SimTime, u64)>> =
            self.shards.iter().map(World::peek_head).collect();
        let owner_of: Vec<u32> = (0..self.node_count())
            .map(|n| self.node_cell(NodeAddr(n)))
            .collect();
        std::thread::scope(|scope| {
            let (reply_tx, reply_rx) = mpsc::channel::<WindowReply>();
            let mut cmd_txs = Vec::with_capacity(self.shards.len());
            for (ix, shard) in self.shards.iter_mut().enumerate() {
                let (tx, rx) = mpsc::channel::<WindowCmd>();
                cmd_txs.push(tx);
                let reply_tx = reply_tx.clone();
                scope.spawn(move || {
                    while let Ok((mut crossings, end)) = rx.recv() {
                        for c in crossings.drain(..) {
                            shard.push_crossing(c);
                        }
                        let fired = shard.run_window(end);
                        let out = shard.swap_outbox(crossings);
                        let peek = shard.peek_head();
                        if reply_tx.send((ix, fired, out, peek)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(reply_tx);
            let mut fired_total = 0u64;
            loop {
                // Earliest pending work: local peeks plus undelivered
                // crossings (a crossing can precede every local event).
                let mut m = peeks.iter().flatten().map(|&(t, _)| t).min();
                for q in &pending {
                    for c in q {
                        let at = c.at;
                        m = Some(m.map_or(at, |cur: SimTime| cur.min(at)));
                    }
                }
                let Some(m) = m else { break };
                if horizon.is_some_and(|h| m >= h) || fired_total >= max_events {
                    break;
                }
                let mut end = m.after(lookahead);
                if let Some(h) = horizon {
                    end = end.min(h);
                }
                for (ix, tx) in cmd_txs.iter().enumerate() {
                    let crossings =
                        std::mem::replace(&mut pending[ix], std::mem::take(&mut spare[ix]));
                    tx.send((crossings, end)).expect("shard worker alive");
                }
                for _ in 0..cmd_txs.len() {
                    let (ix, fired, mut out, peek) = reply_rx.recv().expect("shard worker reply");
                    fired_total += fired;
                    peeks[ix] = peek;
                    for c in out.drain(..) {
                        pending[owner_of[c.node.0] as usize].push(c);
                    }
                    spare[ix] = out;
                }
            }
            drop(cmd_txs);
        });
        // Undelivered crossings (past the horizon) go back into owner
        // queues so a later run resumes them.
        for c in pending.into_iter().flatten() {
            let owner = self.owner(c.node);
            self.shards[owner].push_crossing(c);
        }
    }

    /// Exact global `(time, key)` merge for zero lookahead: dispatch
    /// the single globally-earliest event, exchange crossings, repeat.
    /// Equivalent to a single world, one event at a time.
    fn run_lockstep(&mut self, horizon: Option<SimTime>, max_events: u64) {
        let mut fired_total = 0u64;
        loop {
            self.exchange();
            let best = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(ix, s)| s.peek_head().map(|hk| (hk, ix)))
                .min();
            let Some(((t, _), ix)) = best else { break };
            if horizon.is_some_and(|h| t >= h) || fired_total >= max_events {
                break;
            }
            self.shards[ix].dispatch_head();
            fired_total += 1;
        }
    }
}

impl Engine for ShardedWorld {
    fn cells(&self) -> &[World] {
        &self.shards
    }

    fn cells_mut(&mut self) -> &mut [World] {
        &mut self.shards
    }

    fn run_until(&mut self, until: SimTime) -> WorldStats {
        self.run_windows(Some(until), u64::MAX);
        for s in &mut self.shards {
            s.set_clock(until);
        }
        self.stats()
    }

    fn run_to_idle(&mut self, max_events: u64) -> WorldStats {
        self.run_windows(None, max_events);
        // Settle every clock at the global maximum so `now` agrees.
        let max_now = self.now();
        for s in &mut self.shards {
            s.set_clock(max_now);
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    use dumbnet_packet::{Packet, Payload};
    use dumbnet_types::{Bandwidth, MacAddr, Path, PortNo};

    use crate::engine::{Ctx, LinkParams, Node};
    use crate::faults::{ChaosPlan, CrashSchedule};
    use crate::hybrid::HybridWorld;

    const P1: PortNo = match PortNo::new(1) {
        Some(p) => p,
        None => unreachable!(),
    };

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn t_us(n: u64) -> SimTime {
        SimTime::ZERO.after(us(n))
    }

    fn port(n: u8) -> PortNo {
        PortNo::new(n).expect("valid port")
    }

    /// Echoes every packet back out the port it came in on, recording
    /// `(seq, arrival ns)`.
    struct Hub {
        received: Vec<(u64, u64)>,
    }

    impl Node for Hub {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortNo, pkt: Packet) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.received.push((seq, ctx.now().nanos()));
            }
            ctx.send(in_port, pkt);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Sends `total` packets on a timer, optionally jittering the
    /// interval with its per-node RNG; records echo arrivals.
    struct Pinger {
        id: u64,
        total: u64,
        jitter: bool,
        sent: u64,
        echoes: Vec<(u64, u64)>,
    }

    impl Pinger {
        fn new(id: u64, total: u64, jitter: bool) -> Pinger {
            Pinger {
                id,
                total,
                jitter,
                sent: 0,
                echoes: Vec::new(),
            }
        }
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(us(100), 0);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: PortNo, pkt: Packet) {
            if let Payload::Data { seq, .. } = pkt.payload {
                self.echoes.push((seq, ctx.now().nanos()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent >= self.total {
                return;
            }
            let pkt = Packet::data(
                MacAddr::for_host(self.id),
                MacAddr::for_host(0),
                Path::empty(),
                self.id,
                self.sent,
                400,
            );
            self.sent += 1;
            ctx.send(P1, pkt);
            let extra = if self.jitter {
                ctx.rng().gen_range(0..40)
            } else {
                0
            };
            ctx.set_timer(us(100 + extra), 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(us(100), 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A hub in cell 0 wired to one pinger per further cell — the hub's
    /// links span every cell of the engine (3+ cells for `cells ≥ 4`).
    /// Returns `(hub, pingers, wires)`.
    fn build_star<E: Engine>(
        w: &mut E,
        cells: u32,
        latency: SimDuration,
        jitter: bool,
    ) -> (NodeAddr, Vec<NodeAddr>, Vec<WireId>) {
        let params = LinkParams {
            latency,
            bandwidth: Bandwidth::gbps(10),
            max_queue: SimDuration::from_millis(10),
            ecn_threshold: None,
        };
        let hub = w.add_node_in_cell(
            Box::new(Hub {
                received: Vec::new(),
            }),
            0,
        );
        let mut pingers = Vec::new();
        let mut wires = Vec::new();
        for c in 0..cells {
            let p = w.add_node_in_cell(Box::new(Pinger::new(u64::from(c) + 1, 40, jitter)), c);
            let hub_port = port(u8::try_from(c).expect("cell fits") + 1);
            wires.push(w.wire(p, P1, hub, hub_port, params).expect("wiring"));
            pingers.push(p);
        }
        (hub, pingers, wires)
    }

    /// Runs the star scenario (under [`boundary_chaos`] when `chaos`)
    /// and digests every observable the determinism contract covers:
    /// merged stats, per-wire stats, node-internal state and the full
    /// telemetry snapshot JSON.
    fn fingerprint<E: Engine>(
        mut w: E,
        cells: u32,
        latency: SimDuration,
        jitter: bool,
        chaos: bool,
        slices: bool,
    ) -> String {
        let (hub, pingers, wires) = build_star(&mut w, cells, latency, jitter);
        for n in 0..w.node_count() {
            let cell = w.node_cell(NodeAddr(n)) as usize;
            assert!(cell < w.cell_count(), "node {n} recorded in cell {cell}");
        }
        if chaos {
            boundary_chaos(&mut w, &wires, pingers[1], latency.nanos() / 1_000);
        }
        if slices {
            // Many short run_until calls, so window state must survive
            // re-entry.
            let mut now = SimTime::ZERO;
            for _ in 0..20 {
                now = now.after(SimDuration::from_millis(1));
                w.run_until(now);
            }
        } else {
            w.run_until(SimTime::ZERO.after(SimDuration::from_millis(20)));
        }
        let mut out = format!("{:?}\n", w.stats());
        for wire in wires {
            out.push_str(&format!("{:?}\n", w.link_stats(wire)));
        }
        let hub_log = &w.node::<Hub>(hub).expect("hub").received;
        out.push_str(&format!("hub {hub_log:?}\n"));
        for p in pingers {
            let p = w.node::<Pinger>(p).expect("pinger");
            out.push_str(&format!(
                "pinger {} sent {} echoes {:?}\n",
                p.id, p.sent, p.echoes
            ));
        }
        out.push_str(&w.telemetry_snapshot().to_json());
        out
    }

    /// The chaos of the boundary tests, one of every admin event kind:
    /// loss on one wire that worsens to total loss mid-run and recovers,
    /// three down/up flaps of a second wire, and a crash/restart — every
    /// instant landing exactly on a `latency`-multiple, i.e. on
    /// synchronization-window boundaries.
    fn boundary_chaos<E: Engine>(w: &mut E, wires: &[WireId], victim: NodeAddr, latency_us: u64) {
        ChaosPlan::seeded(42)
            .with_link_fault(wires[0], 0.2)
            .with_crash(CrashSchedule {
                node: victim,
                at: t_us(latency_us * 200),
                restart_after: Some(us(latency_us * 80)),
            })
            .apply(w);
        w.schedule_loss(t_us(latency_us * 50), wires[0], 1.0);
        w.schedule_loss(t_us(latency_us * 60), wires[0], 0.2);
        for cycle in 0..3 {
            let down = latency_us * (100 + 60 * cycle);
            w.schedule_link_state(t_us(down), wires[1], false);
            w.schedule_link_state(t_us(down + latency_us * 20), wires[1], true);
        }
    }

    /// A sharded world that runs its windows on the calling thread.
    fn sequential(seed: u64, cells: usize) -> ShardedWorld {
        let mut w = ShardedWorld::new(seed, cells);
        w.set_parallel(Some(false));
        w
    }

    /// One scenario, every engine shape, one fingerprint: the plain
    /// world is the reference; shard counts below, at and above the
    /// star's four cells must match it, and so must an idle flow plane
    /// layered over either packet engine.
    fn assert_engines_agree(
        latency: SimDuration,
        jitter: bool,
        chaos: bool,
        slices: bool,
    ) -> String {
        let want = fingerprint(World::new(11), 4, latency, jitter, chaos, slices);
        for cells in [1usize, 2, 4, 8] {
            let got = fingerprint(sequential(11, cells), 4, latency, jitter, chaos, slices);
            assert_eq!(want, got, "sequential {cells}-shard run diverged");
        }
        let over_world = HybridWorld::new(World::new(11));
        let got = fingerprint(over_world, 4, latency, jitter, chaos, slices);
        assert_eq!(want, got, "hybrid over a plain world diverged");
        let over_shards = HybridWorld::new(sequential(11, 4));
        let got = fingerprint(over_shards, 4, latency, jitter, chaos, slices);
        assert_eq!(want, got, "hybrid over 4 shards diverged");
        want
    }

    #[test]
    fn shard_counts_are_observationally_identical() {
        assert_engines_agree(us(5), true, false, false);
    }

    #[test]
    fn threaded_windows_match_sequential() {
        let mut seq = ShardedWorld::new(7, 4);
        seq.set_parallel(Some(false));
        let mut thr = ShardedWorld::new(7, 4);
        thr.set_parallel(Some(true));
        let a = fingerprint(seq, 4, us(5), true, false, false);
        let b = fingerprint(thr, 4, us(5), true, false, false);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_latency_cross_links_fall_back_to_lockstep() {
        let single = fingerprint(World::new(3), 3, SimDuration::ZERO, true, false, false);
        let w = ShardedWorld::new(3, 3);
        let got = fingerprint(w, 3, SimDuration::ZERO, true, false, false);
        assert_eq!(single, got);
        // And the engine really did pick the degenerate lookahead.
        let mut probe = ShardedWorld::new(3, 3);
        build_star(&mut probe, 3, SimDuration::ZERO, false);
        assert_eq!(probe.lookahead(), Some(SimDuration::ZERO));
    }

    #[test]
    fn hub_links_spanning_many_cells_stay_consistent() {
        // 6 cells: the hub's wires reach 5 foreign cells at once.
        let single = fingerprint(World::new(19), 6, us(3), true, false, false);
        let mut w = ShardedWorld::new(19, 6);
        w.set_parallel(Some(false));
        let got = fingerprint(w, 6, us(3), true, false, false);
        assert_eq!(single, got);
    }

    #[test]
    fn chaos_on_window_boundaries_is_shard_invariant() {
        let single = assert_engines_agree(us(5), false, true, true);
        // Threaded execution under chaos, too.
        let mut w = ShardedWorld::new(11, 4);
        w.set_parallel(Some(true));
        let got = fingerprint(w, 4, us(5), false, true, true);
        assert_eq!(single, got, "threaded chaos run diverged");
    }

    #[test]
    fn run_to_idle_drains_across_shards() {
        let mut w = ShardedWorld::new(5, 3);
        w.set_parallel(Some(false));
        let (hub, pingers, _) = build_star(&mut w, 3, us(5), false);
        let stats = w.run_to_idle(u64::MAX);
        assert!(stats.events > 0);
        assert_eq!(w.node::<Hub>(hub).expect("hub").received.len(), 3 * 40);
        for p in pingers {
            assert_eq!(w.node::<Pinger>(p).expect("pinger").echoes.len(), 40);
        }
        assert_eq!(w.next_event_time(), None);
    }

    #[test]
    fn independent_shards_run_without_lookahead() {
        // No cross-cell wires at all: two disjoint pinger→hub pairs in
        // separate cells. The lookahead stays `None` and each shard
        // runs to its horizon independently.
        fn pairs<E: Engine>(mut w: E) -> (String, E) {
            let params = LinkParams {
                latency: SimDuration::from_micros(2),
                bandwidth: Bandwidth::gbps(10),
                max_queue: SimDuration::from_millis(10),
                ecn_threshold: None,
            };
            let a0 = w.add_node_in_cell(Box::new(Pinger::new(1, 10, true)), 0);
            let a1 = w.add_node_in_cell(
                Box::new(Hub {
                    received: Vec::new(),
                }),
                0,
            );
            let b0 = w.add_node_in_cell(Box::new(Pinger::new(2, 10, true)), 1);
            let b1 = w.add_node_in_cell(
                Box::new(Hub {
                    received: Vec::new(),
                }),
                1,
            );
            w.wire(a0, P1, a1, P1, params).expect("wire");
            w.wire(b0, P1, b1, P1, params).expect("wire");
            w.run_until(SimTime::ZERO.after(SimDuration::from_millis(10)));
            let digest = format!(
                "{:?} {:?} {:?}",
                w.stats(),
                w.node::<Hub>(a1).expect("hub a").received,
                w.node::<Hub>(b1).expect("hub b").received,
            );
            (digest, w)
        }
        let (single, _) = pairs(World::new(9));
        let (sharded, w) = pairs(ShardedWorld::new(9, 2));
        assert_eq!(single, sharded);
        assert_eq!(
            w.lookahead(),
            None,
            "disjoint cells must not create lookahead"
        );
    }
}
