//! The telemetry spine: a deterministic metrics registry plus a bounded
//! structured trace ring, shared by every node kind in the emulator.
//!
//! DumbNet's argument is made with measurements (§7 of the paper), so
//! the reproduction needs observability that is *part of the
//! determinism contract* rather than bolted on: two same-seed runs must
//! produce byte-identical snapshots, and a snapshot must never perturb
//! the run that produced it.
//!
//! # Model
//!
//! A node's metrics are one [`Block`]: a struct of inline counter
//! [`Cell`]s, gauge [`Level`]s and [`Doubling`] histograms, declared —
//! names, storage and stats view together — by one [`counter_block!`],
//! held by the node as an `Arc` and registered once with
//! [`Telemetry::register_block`] under `(NodeKind, node id)`, so a node
//! is one registry entry and one allocation. The block is the storage:
//! the node increments a field on its hot path (a plain load and store,
//! no lookup), and a [`TelemetrySnapshot`] reads the same fields through
//! the registry, expanding each block to one [`MetricKey`] of
//! `(NodeKind, node id, field name)` per field — so snapshot order
//! depends on the names alone, never on how fields are grouped or
//! listed. A metric no node owns (a
//! benchmark kernel's) is a one-off shared handle registered under its
//! own key: fixed-bucket [`Histogram`], [`Gauge`] (an `Arc<Level>`), and
//! [`Counter`] (an `Arc<Cell>`); it snapshots exactly as the same metric
//! held in a block. Registration replaces, so a node that is
//! crash-restarted registers the same block again without losing counts.
//!
//! # The single-writer contract
//!
//! A cell or handle is written by the one thread that owns its world
//! shard (the one its node or wire lives in) and read only at a barrier
//! or snapshot, when no shard is running. Under that contract a write
//! needs no read-modify-write instruction and no lock: [`Cell::add`],
//! [`Level::add`] and [`Histogram::observe`] are a relaxed load followed
//! by a relaxed store on an `AtomicU64`. They are atomics only so that
//! blocks and handles stay `Send + Sync` in safe code — a worker thread
//! can carry its shard's blocks, and the barrier that hands the shard
//! back (a channel receive, a scope join) is what publishes the values.
//! Two threads writing one cell concurrently is a contract violation that
//! loses updates (never memory safety); the workspace's
//! `tests/telemetry.rs` runs a storm on forced worker threads and
//! compares every counter with the single-world run to catch exactly
//! that.
//!
//! # Sharded worlds
//!
//! The sharded PDES engine gives every shard its *own* registry and
//! merges at snapshot time with [`TelemetrySnapshot::absorb`]: counters
//! and gauges sum, histograms sum bucket-wise. Each increment happens on
//! exactly one shard (the one that owns the incrementing node, or the
//! sending side of a wire), so the merged snapshot of an N-shard run
//! equals the single-registry snapshot of the same seed — the
//! cross-shard determinism gate (`figures gate shards`) pins this
//! byte-for-byte. The registry maps and trace ring sit behind one mutex,
//! taken for registration, snapshots and trace events only — never on
//! the per-event path.
//!
//! # Determinism rules
//!
//! * The registry and every snapshot are `BTreeMap`s; snapshots, JSON
//!   export and diffs iterate in key order. No hash-map iteration
//!   order anywhere.
//! * Metric values are integers (counts, nanoseconds, bytes). No
//!   floats, so no formatting or accumulation-order variance.
//! * Trace events are stamped with *sim time*, never wall clock.
//! * Snapshots are pure reads; taking one cannot change any counter.
//!
//! # Trace ring
//!
//! [`TraceEvent`]s — categorized packet / election / chaos / route —
//! go into a bounded ring ([`Telemetry::trace`]); when it wraps, the
//! oldest events are dropped and counted. The soak harness dumps the
//! tail on invariant violation, so a CI failure is diagnosable from
//! its log alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dumbnet_types::{heap, SimTime};

/// Which layer of the emulator a metric or trace event belongs to.
///
/// Part of [`MetricKey`]; the ordering (world, link, switch, host,
/// controller) is the snapshot iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// The simulation engine itself (event totals, drop totals).
    World,
    /// One wire, identified by its `WireId` index.
    Link,
    /// A dumb switch, identified by its `SwitchId`.
    Switch,
    /// A host agent, identified by its `HostId`.
    Host,
    /// A controller instance, identified by its `HostId`.
    Controller,
}

impl NodeKind {
    /// Stable lowercase name used in JSON and diff output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::World => "world",
            NodeKind::Link => "link",
            NodeKind::Switch => "switch",
            NodeKind::Host => "host",
            NodeKind::Controller => "controller",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Registry key: `(kind, node id, metric name)`.
///
/// Metric names are code, not data: every block cell and handle is
/// registered under a `&'static str`, so a key owns no heap. A name
/// built at run time still finds its metric through
/// [`TelemetrySnapshot::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Layer the metric belongs to.
    pub kind: NodeKind,
    /// Node identity within the layer (id value, wire index, 0 for world).
    pub node: u64,
    /// Metric name, `snake_case`.
    pub name: &'static str,
}

impl MetricKey {
    /// Builds a key.
    #[must_use]
    pub fn new(kind: NodeKind, node: u64, name: &'static str) -> MetricKey {
        MetricKey { kind, node, name }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.kind, self.node, self.name)
    }
}

/// One `u64` counter stored inline in its owner — a field of a
/// [`counter_block!`] struct, or the target of a [`Counter`] handle.
/// Single-writer (see the crate docs): one thread writes, reads happen
/// at barriers.
#[derive(Debug, Default)]
pub struct Cell(AtomicU64);

impl Cell {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(self.get().wrapping_add(n), Ordering::Relaxed);
    }

    /// Overwrites the value. For totals maintained elsewhere and
    /// mirrored into the registry (e.g. synced in a publish hook);
    /// prefer [`Cell::inc`] for live counters.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric stored inline in a [`Block`]: a [`Cell`] (counter), a
/// [`Level`] (gauge) or a [`Doubling`] (histogram).
pub trait Metric: Send + Sync {
    /// The current value, as a snapshot holds it.
    fn read(&self) -> MetricValue;
}

impl Metric for Cell {
    fn read(&self) -> MetricValue {
        MetricValue::Counter(self.get())
    }
}

impl Metric for Level {
    fn read(&self) -> MetricValue {
        MetricValue::Gauge(self.get())
    }
}

impl<const FIRST: u64, const N: usize> Metric for Doubling<FIRST, N> {
    fn read(&self) -> MetricValue {
        MetricValue::Histogram(self.snapshot())
    }
}

/// A node's metrics: fixed names and the [`Metric`]s behind them in one
/// allocation, registered once with [`Telemetry::register_block`].
/// Implemented by [`counter_block!`], never by hand.
pub trait Block: Send + Sync + fmt::Debug {
    /// Calls `f(name, metric)` for every field, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, &dyn Metric));
}

/// Declares a [`Block`]: a private struct with one field per listed
/// name, its `Default`, and the `Block` impl that names each metric
/// after its field. A field is a [`Cell`] unless typed: `name: Level`
/// or `name: Doubling<FIRST, N>`.
///
/// * `struct B { a, b, c: Level }` — the block alone.
/// * `struct B => V { a, b } + { c, d: Doubling<1, 8> }` — also
///   `B::fill(&self, &mut V)`, which copies the cells `a` and `b` into
///   the same-named `u64` fields of the existing view struct `V`; the
///   fields after `+` are in the registry but not in the view, and `V`
///   may have fields of its own.
/// * `struct B => #[derive(..)] pub struct V { /** doc */ a, .. }` —
///   also declares `V` itself, one documented `pub u64` field per cell,
///   with an `AddAssign` that sums every field.
#[macro_export]
macro_rules! counter_block {
    (@ty) => { $crate::Cell };
    (@ty $t:ty) => { $t };
    ($(#[$m:meta])* struct $B:ident { $($(#[$fm:meta])* $f:ident $(: $t:ty)?),* $(,)? }) => {
        $(#[$m])*
        #[derive(Debug, Default)]
        struct $B {
            $($(#[$fm])* $f: $crate::counter_block!(@ty $($t)?),)*
        }
        impl $crate::Block for $B {
            fn visit(&self, f: &mut dyn FnMut(&'static str, &dyn $crate::Metric)) {
                $(f(stringify!($f), &self.$f);)*
            }
        }
    };
    ($(#[$m:meta])* struct $B:ident =>
     $(#[$vm:meta])* pub struct $V:ident { $($(#[$fm:meta])* $f:ident),* $(,)? }) => {
        $(#[$vm])*
        pub struct $V {
            $($(#[$fm])* pub $f: u64,)*
        }
        impl std::ops::AddAssign for $V {
            fn add_assign(&mut self, rhs: $V) {
                $(self.$f += rhs.$f;)*
            }
        }
        $crate::counter_block! { $(#[$m])* struct $B => $V { $($f),* } }
    };
    ($(#[$m:meta])* struct $B:ident => $V:ident { $($(#[$fm:meta])* $f:ident),* $(,)? }
     $(+ { $($(#[$hm:meta])* $h:ident $(: $t:ty)?),* $(,)? })?) => {
        $crate::counter_block! {
            $(#[$m])* struct $B { $($(#[$fm])* $f,)* $($($(#[$hm])* $h $(: $t)?,)*)? }
        }
        impl $B {
            fn fill(&self, view: &mut $V) {
                $(view.$f = self.$f.get();)*
            }
        }
    };
}

/// A one-off counter handle: a shared [`Cell`] registered under its own
/// name with [`Telemetry::register_counter`]. Cloning shares the cell;
/// the registry holds one clone and the owner another.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<Cell>);

impl Counter {
    /// Creates a detached counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }
}

impl std::ops::Deref for Counter {
    type Target = Cell;

    fn deref(&self) -> &Cell {
        &self.0
    }
}

/// One signed, settable `i64` level stored inline in its owner (queue
/// depths, leadership, version numbers) — a gauge field of a
/// [`counter_block!`] struct, or the target of a [`Gauge`] handle.
/// Single-writer, like [`Cell`].
#[derive(Debug, Default)]
pub struct Level(AtomicI64);

impl Level {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.store(self.get().wrapping_add(d), Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A one-off gauge handle: a shared [`Level`] registered under its own
/// name with [`Telemetry::register_gauge`]. Cloning shares the level.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<Level>);

impl Gauge {
    /// Creates a detached gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }
}

impl std::ops::Deref for Gauge {
    type Target = Level;

    fn deref(&self) -> &Level {
        &self.0
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing. A value `v` lands
    /// in the first bucket with `v <= bounds[i]`; larger values land in
    /// the overflow bucket.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the final slot is the overflow bucket).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The bucket index `observe(v)` would increment.
    #[must_use]
    pub fn bucket_for(&self, v: u64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }
}

/// The cells behind a [`Histogram`] handle: immutable bounds and one
/// cell per bucket (the last is the overflow bucket) followed by the
/// value sum.
#[derive(Debug)]
struct HistogramCells {
    bounds: Box<[u64]>,
    cells: Box<[AtomicU64]>,
}

/// A fixed-bucket histogram handle (see [`HistogramSnapshot`] for the
/// bucket semantics). Cloning shares the underlying cells.
/// Single-writer, like [`Counter`]: an observation is a bucket search
/// over the immutable bounds plus two load/store pairs, no lock.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Creates a histogram with the given inclusive upper `bounds`.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` is strictly increasing (an empty bounds
    /// list — a single overflow bucket — is allowed).
    #[must_use]
    pub fn new(bounds: Vec<u64>) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        // Buckets, the overflow bucket and the sum, in one allocation.
        let cells = (0..bounds.len() + 2).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCells {
            bounds: bounds.into(),
            cells,
        }))
    }

    /// A histogram over doubling bounds: `first, first*2, …` for
    /// `buckets` bounds. Convenient for latency-like values spanning
    /// orders of magnitude; a saturated bound (`u64::MAX`) is listed
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `first` is zero (the bounds would not increase).
    #[must_use]
    pub fn doubling(first: u64, buckets: usize) -> Histogram {
        Histogram::new(doubling_bounds(first, buckets))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let h = &*self.0;
        let bucket = &h.cells[h.bounds.partition_point(|&b| b < v)];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let sum = &h.cells[h.cells.len() - 1];
        sum.store(
            sum.load(Ordering::Relaxed).wrapping_add(v),
            Ordering::Relaxed,
        );
    }

    /// A copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let (sum, counts) = h.cells.split_last().expect("the sum cell");
        let counts: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            bounds: h.bounds.to_vec(),
            count: counts.iter().sum(),
            counts,
            sum: sum.load(Ordering::Relaxed),
        }
    }
}

/// Bound `i` of a doubling histogram: `first * 2^i`, saturating at
/// `u64::MAX`.
fn doubling_bound(first: u64, i: usize) -> u64 {
    match u32::try_from(i).ok().and_then(|i| 1u64.checked_shl(i)) {
        Some(scale) => first.saturating_mul(scale),
        None => u64::MAX,
    }
}

/// The first `buckets` doubling bounds from `first`, cut after the first
/// saturated one (every later bound would repeat it).
fn doubling_bounds(first: u64, buckets: usize) -> Vec<u64> {
    assert!(first > 0, "doubling histogram needs a positive first bound");
    let distinct = (0..buckets)
        .position(|i| doubling_bound(first, i) == u64::MAX)
        .map_or(buckets, |i| i + 1);
    (0..distinct).map(|i| doubling_bound(first, i)).collect()
}

/// A histogram over [`Histogram::doubling`]`(FIRST, N)`'s bounds, stored
/// inline in its owner — a field of a [`counter_block!`] struct — so it
/// costs no allocation and no registry entry of its own. It observes and
/// snapshots exactly as that handle does. Single-writer, like [`Cell`].
#[derive(Debug)]
pub struct Doubling<const FIRST: u64, const N: usize> {
    counts: [Cell; N],
    overflow: Cell,
    sum: Cell,
}

impl<const FIRST: u64, const N: usize> Default for Doubling<FIRST, N> {
    fn default() -> Self {
        Doubling {
            counts: std::array::from_fn(|_| Cell::default()),
            overflow: Cell::default(),
            sum: Cell::default(),
        }
    }
}

impl<const FIRST: u64, const N: usize> Doubling<FIRST, N> {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        // Bounds past a saturated one never count: `v <= u64::MAX` stops
        // the search there.
        match (0..N).find(|&i| v <= doubling_bound(FIRST, i)) {
            Some(i) => self.counts[i].inc(),
            None => self.overflow.inc(),
        }
        self.sum.add(v);
    }

    /// A copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let bounds = doubling_bounds(FIRST, N);
        let counts: Vec<u64> = self.counts[..bounds.len()]
            .iter()
            .chain([&self.overflow])
            .map(Cell::get)
            .collect();
        HistogramSnapshot {
            bounds,
            count: counts.iter().sum(),
            counts,
            sum: self.sum.get(),
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Counter(v) => write!(f, "{v}"),
            MetricValue::Gauge(v) => write!(f, "{v}"),
            MetricValue::Histogram(h) => {
                write!(f, "histogram(count={}, sum={})", h.count, h.sum)
            }
        }
    }
}

/// Registered live handle (internal).
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn read(&self) -> MetricValue {
        match self {
            Handle::Counter(c) => c.read(),
            Handle::Gauge(g) => g.read(),
            Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// Category of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Data-plane happenings: drops, ECN marks, storms.
    Packet,
    /// Leadership: elections, takeovers, step-downs.
    Election,
    /// Injected faults and admin actions: crashes, restarts, link flips.
    Chaos,
    /// Path computation and dissemination: patches, cache invalidation.
    Route,
}

impl TraceCategory {
    /// Stable lowercase name used in dumps.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Packet => "packet",
            TraceCategory::Election => "election",
            TraceCategory::Chaos => "chaos",
            TraceCategory::Route => "route",
        }
    }
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured trace record, stamped with sim time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time the event was emitted.
    pub at: SimTime,
    /// Event category.
    pub category: TraceCategory,
    /// Layer of the emitting node.
    pub kind: NodeKind,
    /// Emitting node's id within the layer.
    pub node: u64,
    /// Human-readable detail line.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12} ns] {:<8} {}/{}: {}",
            self.at.nanos(),
            self.category,
            self.kind,
            self.node,
            self.detail
        )
    }
}

/// Bounded trace ring (internal).
#[derive(Debug)]
struct TraceRing {
    cap: usize,
    buf: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

#[derive(Debug)]
struct Registry {
    blocks: BTreeMap<(NodeKind, u64), Arc<dyn Block>>,
    handles: BTreeMap<MetricKey, Handle>,
    trace: TraceRing,
}

/// The shared telemetry registry handle.
///
/// One per world shard; cloned into every `Ctx` so nodes register
/// their blocks without manual plumbing. Cloning is cheap (an `Arc`
/// bump) and all clones observe the same registry. The handle is
/// `Send`, so sharded worlds can carry their registries across worker
/// threads. The internal mutex guards registration, snapshots and the
/// trace ring only; metric writes go to the cells and never take it.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
    trace_cap: usize,
}

/// Default trace ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 512;

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new(DEFAULT_TRACE_CAP)
    }
}

impl Telemetry {
    /// Creates a registry whose trace ring keeps the most recent
    /// `trace_cap` events (0 disables tracing entirely).
    #[must_use]
    pub fn new(trace_cap: usize) -> Telemetry {
        Telemetry {
            inner: Arc::new(Mutex::new(Registry {
                blocks: BTreeMap::new(),
                handles: BTreeMap::new(),
                trace: TraceRing {
                    cap: trace_cap,
                    buf: std::collections::VecDeque::new(),
                    dropped: 0,
                },
            })),
            trace_cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().expect("telemetry lock")
    }

    /// Registers a node's block: every metric of `block` appears in
    /// snapshots under `(kind, node, field name)`. One map entry per
    /// node; registering the same `(kind, node)` again (a restarted
    /// node) replaces the entry.
    pub fn register_block(&self, kind: NodeKind, node: u64, block: Arc<dyn Block>) {
        self.lock().blocks.insert((kind, node), block);
    }

    fn register(&self, kind: NodeKind, node: u64, name: &'static str, handle: Handle) {
        self.lock()
            .handles
            .insert(MetricKey::new(kind, node, name), handle);
    }

    /// Registers (or re-registers) a one-off counter handle.
    /// Idempotent: registering the same handle again is a no-op, and a
    /// fresh handle under the same key replaces the old one.
    pub fn register_counter(&self, kind: NodeKind, node: u64, name: &'static str, c: &Counter) {
        self.register(kind, node, name, Handle::Counter(c.clone()));
    }

    /// Registers (or re-registers) a gauge handle.
    pub fn register_gauge(&self, kind: NodeKind, node: u64, name: &'static str, g: &Gauge) {
        self.register(kind, node, name, Handle::Gauge(g.clone()));
    }

    /// Registers (or re-registers) a histogram handle.
    pub fn register_histogram(&self, kind: NodeKind, node: u64, name: &'static str, h: &Histogram) {
        self.register(kind, node, name, Handle::Histogram(h.clone()));
    }

    /// Number of registered metrics: one per block field plus one per
    /// one-off handle.
    #[must_use]
    pub fn len(&self) -> usize {
        let reg = self.lock();
        let mut n = reg.handles.len();
        for block in reg.blocks.values() {
            block.visit(&mut |_, _| n += 1);
        }
        n
    }

    /// Whether no metrics are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether trace events are being kept (capacity > 0). Callers can
    /// skip formatting details when tracing is disabled.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace_cap > 0
    }

    /// Appends a trace event to the ring.
    pub fn trace(&self, ev: TraceEvent) {
        self.lock().trace.push(ev);
    }

    /// Convenience: builds and appends a trace event.
    pub fn emit(
        &self,
        at: SimTime,
        category: TraceCategory,
        kind: NodeKind,
        node: u64,
        detail: impl Into<String>,
    ) {
        self.trace(TraceEvent {
            at,
            category,
            kind,
            node,
            detail: detail.into(),
        });
    }

    /// The most recent `n` trace events, oldest first, plus the number
    /// of older events the ring has already discarded.
    #[must_use]
    pub fn trace_tail(&self, n: usize) -> (Vec<TraceEvent>, u64) {
        let reg = self.lock();
        let skip = reg.trace.buf.len().saturating_sub(n);
        let tail: Vec<TraceEvent> = reg.trace.buf.iter().skip(skip).cloned().collect();
        (tail, reg.trace.dropped + skip as u64)
    }

    /// Reads every registered metric into an ordered snapshot: blocks
    /// expand to one `(kind, node, field name)` metric per field, so the
    /// map's key order — not block layout — fixes the order. A pure
    /// read: no counter is modified.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let reg = self.lock();
        let mut snap = TelemetrySnapshot::default();
        for (&(kind, node), block) in &reg.blocks {
            snap.insert_block(kind, node, &**block);
        }
        snap.metrics
            .extend(reg.handles.iter().map(|(k, h)| (*k, h.read())));
        snap
    }

    /// The heap the registry itself holds: its maps and the trace ring.
    /// The blocks and handles it shares with their nodes are the nodes'
    /// to count.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let reg = self.lock();
        let details: usize = reg.trace.buf.iter().map(|e| e.detail.capacity()).sum();
        heap::arc::<Mutex<Registry>>()
            + heap::btree_map(&reg.blocks)
            + heap::btree_map(&reg.handles)
            + heap::deque(&reg.trace.buf)
            + details
    }
}

/// An ordered, point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Metric values in `BTreeMap` (deterministic) key order.
    pub metrics: BTreeMap<MetricKey, MetricValue>,
}

impl TelemetrySnapshot {
    /// The value under `(kind, node, name)`, if registered. `name` may
    /// be built at run time: the lookup seeks to the node's first key
    /// and scans that node's metrics only.
    #[must_use]
    pub fn get(&self, kind: NodeKind, node: u64, name: &str) -> Option<&MetricValue> {
        self.metrics
            .range(MetricKey::new(kind, node, "")..)
            .take_while(|(k, _)| k.kind == kind && k.node == node)
            .find_map(|(k, v)| (k.name == name).then_some(v))
    }

    /// Counter value under the key, or 0 when absent / not a counter.
    #[must_use]
    pub fn counter(&self, kind: NodeKind, node: u64, name: &str) -> u64 {
        match self.get(kind, node, name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge level under the key, or 0 when absent / not a gauge.
    #[must_use]
    pub fn gauge(&self, kind: NodeKind, node: u64, name: &str) -> i64 {
        match self.get(kind, node, name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of the counter `name` across every node of `kind`.
    #[must_use]
    pub fn sum_counters(&self, kind: NodeKind, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.kind == kind && k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// `(node, counter value)` for the counter `name` on every node of
    /// `kind`, in ascending node order.
    #[must_use]
    pub fn counters_by_node(&self, kind: NodeKind, name: &str) -> Vec<(u64, u64)> {
        self.metrics
            .iter()
            .filter(|(k, _)| k.kind == kind && k.name == name)
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k.node, *c)),
                _ => None,
            })
            .collect()
    }

    /// Folds another shard's snapshot into this one: counters and
    /// gauges under the same key sum (wrapping), histograms with equal
    /// bounds sum bucket-wise, and keys present in only one snapshot
    /// carry over unchanged. This is the cross-shard merge rule — each
    /// increment happens on exactly one shard, so summing per-shard
    /// registries reconstructs the single-registry totals.
    ///
    /// # Panics
    ///
    /// Panics if the same key holds different metric types or
    /// histograms with different bounds (impossible when the shards
    /// were built from the same program).
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.metrics {
            match self.metrics.get_mut(k) {
                None => {
                    self.metrics.insert(*k, v.clone());
                }
                Some(MetricValue::Counter(a)) => {
                    if let MetricValue::Counter(b) = v {
                        *a = a.wrapping_add(*b);
                    } else {
                        panic!("telemetry merge: {k} changed type across shards");
                    }
                }
                Some(MetricValue::Gauge(a)) => {
                    if let MetricValue::Gauge(b) = v {
                        *a = a.wrapping_add(*b);
                    } else {
                        panic!("telemetry merge: {k} changed type across shards");
                    }
                }
                Some(MetricValue::Histogram(a)) => {
                    if let MetricValue::Histogram(b) = v {
                        assert_eq!(
                            a.bounds, b.bounds,
                            "telemetry merge: {k} histogram bounds differ across shards"
                        );
                        for (ca, cb) in a.counts.iter_mut().zip(&b.counts) {
                            *ca += cb;
                        }
                        a.count += b.count;
                        a.sum = a.sum.wrapping_add(b.sum);
                    } else {
                        panic!("telemetry merge: {k} changed type across shards");
                    }
                }
            }
        }
    }

    /// Adds every metric of `block` under `(kind, node, field name)` —
    /// how a registered block appears in a snapshot, for blocks an
    /// engine keeps outside the registry.
    pub fn insert_block(&mut self, kind: NodeKind, node: u64, block: &dyn Block) {
        block.visit(&mut |name, m| {
            self.metrics
                .insert(MetricKey::new(kind, node, name), m.read());
        });
    }

    /// Merges an iterator of per-shard snapshots with
    /// [`TelemetrySnapshot::absorb`]. The first snapshot is the base,
    /// so merging a single one (a one-cell engine) copies nothing.
    #[must_use]
    pub fn merged<I: IntoIterator<Item = TelemetrySnapshot>>(parts: I) -> TelemetrySnapshot {
        let mut parts = parts.into_iter();
        let mut out = parts.next().unwrap_or_default();
        for p in parts {
            out.absorb(&p);
        }
        out
    }

    /// Entries that changed (or appeared) relative to `before`, in key
    /// order. Counters and gauges carry their numeric delta.
    #[must_use]
    pub fn diff<'a>(&'a self, before: &'a TelemetrySnapshot) -> TelemetryDiff {
        let mut entries = Vec::new();
        for (k, after) in &self.metrics {
            let prev = before.metrics.get(k);
            if prev != Some(after) {
                entries.push(DiffEntry {
                    key: *k,
                    before: prev.cloned(),
                    after: after.clone(),
                });
            }
        }
        TelemetryDiff { entries }
    }

    /// Deterministic JSON export: one flat array of metric objects in
    /// key order, integers only, no whitespace variance. Two snapshots
    /// compare equal iff their JSON is byte-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len() + 16);
        out.push_str("{\"metrics\":[");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":\"");
            out.push_str(k.kind.as_str());
            out.push_str("\",\"node\":");
            out.push_str(&k.node.to_string());
            out.push_str(",\"name\":\"");
            json_escape_into(&mut out, k.name);
            out.push_str("\",");
            match v {
                MetricValue::Counter(c) => {
                    out.push_str("\"type\":\"counter\",\"value\":");
                    out.push_str(&c.to_string());
                }
                MetricValue::Gauge(g) => {
                    out.push_str("\"type\":\"gauge\",\"value\":");
                    out.push_str(&g.to_string());
                }
                MetricValue::Histogram(h) => {
                    out.push_str("\"type\":\"histogram\",\"bounds\":");
                    json_u64_array_into(&mut out, &h.bounds);
                    out.push_str(",\"counts\":");
                    json_u64_array_into(&mut out, &h.counts);
                    out.push_str(",\"count\":");
                    out.push_str(&h.count.to_string());
                    out.push_str(",\"sum\":");
                    out.push_str(&h.sum.to_string());
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// The changed entries between two snapshots (see
/// [`TelemetrySnapshot::diff`]). `Display` prints one line per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryDiff {
    /// Changed / new entries in key order.
    pub entries: Vec<DiffEntry>,
}

/// One changed metric in a [`TelemetryDiff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// The metric key.
    pub key: MetricKey,
    /// Value in the `before` snapshot (`None` = newly registered).
    pub before: Option<MetricValue>,
    /// Value in the `after` snapshot.
    pub after: MetricValue,
}

impl TelemetryDiff {
    /// Whether nothing changed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for TelemetryDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            match (&e.before, &e.after) {
                (Some(MetricValue::Counter(b)), MetricValue::Counter(a)) => {
                    writeln!(f, "{}: {b} -> {a} (+{})", e.key, a.wrapping_sub(*b))?;
                }
                (Some(MetricValue::Gauge(b)), MetricValue::Gauge(a)) => {
                    writeln!(f, "{}: {b} -> {a} ({:+})", e.key, a.wrapping_sub(*b))?;
                }
                (Some(b), a) => writeln!(f, "{}: {b} -> {a}", e.key)?,
                (None, a) => writeln!(f, "{}: (new) {a}", e.key)?,
            }
        }
        Ok(())
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn json_u64_array_into(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + dumbnet_types::SimDuration::from_nanos(ns)
    }

    #[test]
    fn counter_handles_share_state() {
        let tele = Telemetry::new(0);
        let c = Counter::new();
        tele.register_counter(NodeKind::Host, 3, "pings", &c);
        c.inc();
        c.add(4);
        assert_eq!(tele.snapshot().counter(NodeKind::Host, 3, "pings"), 5);
        // Re-registering (restart) keeps the count.
        tele.register_counter(NodeKind::Host, 3, "pings", &c);
        assert_eq!(tele.snapshot().counter(NodeKind::Host, 3, "pings"), 5);
    }

    counter_block! {
        /// The block alone: no view.
        struct Bare { hits, misses }
    }

    /// A hand-written view with a field of its own (`series`) that the
    /// block does not fill.
    #[derive(Debug, Default, PartialEq)]
    struct PartialView {
        series: Vec<u64>,
        sent: u64,
        dropped: u64,
    }

    counter_block! {
        struct Partial => PartialView { sent, dropped } + {
            /// In the registry, not in the view.
            tx_packets,
        }
    }

    counter_block! {
        struct Summed =>
        /// A view the declaration itself produces.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct SummedView {
            /// Things in.
            rx,
            /// Things out.
            tx,
        }
    }

    fn names(block: &dyn Block) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        block.visit(&mut |name, m| match m.read() {
            MetricValue::Counter(v) => out.push((name, v)),
            other => panic!("{name} is not a counter: {other:?}"),
        });
        out
    }

    #[test]
    fn block_snapshot_equals_per_handle_registration() {
        let blocks = Telemetry::new(0);
        let block = Arc::<Partial>::default();
        blocks.register_block(NodeKind::Host, 4, block.clone());
        block.sent.add(5);
        block.dropped.inc();
        block.tx_packets.set(9);

        // The oracle: the same names and values, one handle each.
        let handles = Telemetry::new(0);
        for (name, v) in [("sent", 5), ("dropped", 1), ("tx_packets", 9)] {
            let c = Counter::new();
            c.add(v);
            handles.register_counter(NodeKind::Host, 4, name, &c);
        }
        let (got, want) = (blocks.snapshot(), handles.snapshot());
        assert_eq!(got, want);
        assert_eq!(got.to_json(), want.to_json());
        assert_eq!(blocks.len(), handles.len());
    }

    #[test]
    fn reregistered_block_replaces_and_len_counts_names() {
        let tele = Telemetry::new(0);
        assert!(tele.is_empty());
        let block = Arc::<Bare>::default();
        tele.register_block(NodeKind::Switch, 1, block.clone());
        block.hits.add(3);
        // A restart registers the same block again: one entry, counts kept.
        tele.register_block(NodeKind::Switch, 1, block.clone());
        assert_eq!(tele.len(), 2);
        assert_eq!(tele.snapshot().counter(NodeKind::Switch, 1, "hits"), 3);
        // A fresh block under the same key replaces the old one.
        tele.register_block(NodeKind::Switch, 1, Arc::<Bare>::default());
        assert_eq!(tele.len(), 2);
        assert_eq!(tele.snapshot().counter(NodeKind::Switch, 1, "hits"), 0);
        // One-off handles count alongside block cells.
        tele.register_gauge(NodeKind::Switch, 1, "depth", &Gauge::new());
        assert_eq!(tele.len(), 3);
        assert_eq!(tele.snapshot().metrics.len(), 3);
    }

    #[test]
    fn merged_sums_one_block_key_cell_wise() {
        // The sharded wire: every shard registers the wire's block and
        // counts its own direction.
        let part = |hits: u64, misses: u64| {
            let tele = Telemetry::new(0);
            let block = Arc::<Bare>::default();
            tele.register_block(NodeKind::Link, 7, block.clone());
            block.hits.add(hits);
            block.misses.add(misses);
            tele.snapshot()
        };
        let merged = TelemetrySnapshot::merged([part(2, 0), part(5, 1)]);
        assert_eq!(merged.metrics.len(), 2);
        assert_eq!(merged.counter(NodeKind::Link, 7, "hits"), 7);
        assert_eq!(merged.counter(NodeKind::Link, 7, "misses"), 1);
    }

    #[test]
    fn counter_block_forms() {
        // Names are the field names, visited in declaration order.
        let bare = Bare::default();
        bare.misses.inc();
        assert_eq!(names(&bare), vec![("hits", 0), ("misses", 1)]);

        // `=> View`: listed cells are copied, the view's own fields are
        // left alone, cells after `+` are registry-only.
        let partial = Partial::default();
        partial.sent.add(4);
        partial.tx_packets.add(8);
        assert_eq!(
            names(&partial),
            vec![("sent", 4), ("dropped", 0), ("tx_packets", 8)]
        );
        let mut view = PartialView {
            series: vec![1, 2],
            sent: 99,
            dropped: 99,
        };
        partial.fill(&mut view);
        let series = vec![1, 2];
        assert_eq!(
            view,
            PartialView {
                series,
                sent: 4,
                dropped: 0
            }
        );

        // `=> pub struct View`: the view, its fill and its field-wise sum.
        let summed = Summed::default();
        summed.rx.add(2);
        summed.tx.add(3);
        let mut total = SummedView { rx: 10, tx: 20 };
        let mut part = SummedView::default();
        summed.fill(&mut part);
        total += part;
        assert_eq!(total, SummedView { rx: 12, tx: 23 });
    }

    #[test]
    fn gauge_levels() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(vec![10, 20, 40]);
        for v in [0, 10] {
            h.observe(v); // first bucket: v <= 10
        }
        h.observe(11); // second bucket
        h.observe(20); // second bucket (inclusive)
        h.observe(40); // third bucket (inclusive)
        h.observe(41); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1, 1]);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 122);
    }

    #[test]
    fn doubling_bounds() {
        let h = Histogram::doubling(1000, 4);
        assert_eq!(h.snapshot().bounds, vec![1000, 2000, 4000, 8000]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![5, 5]);
    }

    #[test]
    fn snapshot_iterates_in_key_order() {
        let tele = Telemetry::new(0);
        let c = Counter::new();
        tele.register_counter(NodeKind::Controller, 0, "zeta", &c);
        tele.register_counter(NodeKind::Host, 9, "alpha", &c);
        tele.register_counter(NodeKind::Host, 1, "beta", &c);
        tele.register_counter(NodeKind::World, 0, "events", &c);
        let keys: Vec<String> = tele
            .snapshot()
            .metrics
            .keys()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            keys,
            vec![
                "world/0/events",
                "host/1/beta",
                "host/9/alpha",
                "controller/0/zeta",
            ]
        );
    }

    #[test]
    fn json_is_deterministic_and_reflects_order() {
        let tele = Telemetry::new(0);
        let c = Counter::new();
        c.add(2);
        let g = Gauge::new();
        g.set(-1);
        tele.register_counter(NodeKind::World, 0, "events", &c);
        tele.register_gauge(NodeKind::Controller, 5, "is_leader", &g);
        let json = tele.snapshot().to_json();
        assert_eq!(
            json,
            "{\"metrics\":[\
             {\"kind\":\"world\",\"node\":0,\"name\":\"events\",\"type\":\"counter\",\"value\":2},\
             {\"kind\":\"controller\",\"node\":5,\"name\":\"is_leader\",\"type\":\"gauge\",\"value\":-1}\
             ]}"
        );
        assert_eq!(json, tele.snapshot().to_json());
    }

    #[test]
    fn diff_reports_deltas_and_new_entries() {
        let tele = Telemetry::new(0);
        let c = Counter::new();
        tele.register_counter(NodeKind::Switch, 2, "forwarded", &c);
        let before = tele.snapshot();
        c.add(10);
        let g = Gauge::new();
        tele.register_gauge(NodeKind::Switch, 2, "depth", &g);
        let after = tele.snapshot();
        let diff = after.diff(&before);
        assert_eq!(diff.entries.len(), 2);
        let text = diff.to_string();
        assert!(text.contains("switch/2/forwarded: 0 -> 10 (+10)"), "{text}");
        assert!(text.contains("switch/2/depth: (new) 0"), "{text}");
        assert!(after.diff(&after).is_empty());
    }

    #[test]
    fn trace_ring_wraps_and_counts_drops() {
        let tele = Telemetry::new(3);
        for i in 0..5u64 {
            tele.emit(
                t(i),
                TraceCategory::Chaos,
                NodeKind::World,
                0,
                format!("e{i}"),
            );
        }
        let (tail, older) = tele.trace_tail(2);
        assert_eq!(older, 3); // 2 wrapped out of the ring + 1 skipped.
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "e3");
        assert_eq!(tail[1].detail, "e4");
    }

    #[test]
    fn trace_cap_zero_disables() {
        let tele = Telemetry::new(0);
        assert!(!tele.trace_enabled());
        tele.emit(t(0), TraceCategory::Packet, NodeKind::Link, 1, "drop");
        let (tail, dropped) = tele.trace_tail(10);
        assert!(tail.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn handles_and_registry_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Counter>();
        assert_send::<Arc<dyn Block>>();
        assert_send::<Gauge>();
        assert_send::<Histogram>();
        assert_send::<Telemetry>();
    }

    #[test]
    fn absorb_sums_counters_gauges_and_histograms() {
        let mk = |c: u64, g: i64, hv: &[u64]| {
            let tele = Telemetry::new(0);
            let cnt = Counter::new();
            cnt.add(c);
            tele.register_counter(NodeKind::World, 0, "events", &cnt);
            let gauge = Gauge::new();
            gauge.set(g);
            tele.register_gauge(NodeKind::Controller, 1, "is_leader", &gauge);
            let h = Histogram::new(vec![10, 20]);
            for &v in hv {
                h.observe(v);
            }
            tele.register_histogram(NodeKind::Host, 2, "rtt", &h);
            tele.snapshot()
        };
        let merged = TelemetrySnapshot::merged([mk(3, 1, &[5, 15]), mk(4, -1, &[25])]);
        assert_eq!(merged.counter(NodeKind::World, 0, "events"), 7);
        assert_eq!(merged.gauge(NodeKind::Controller, 1, "is_leader"), 0);
        match merged.get(NodeKind::Host, 2, "rtt") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.counts, vec![1, 1, 1]);
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 45);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Keys present in only one shard carry over.
        let solo = Telemetry::new(0);
        let c = Counter::new();
        c.add(9);
        solo.register_counter(NodeKind::Switch, 7, "forwarded", &c);
        let merged = TelemetrySnapshot::merged([merged, solo.snapshot()]);
        assert_eq!(merged.counter(NodeKind::Switch, 7, "forwarded"), 9);
        assert_eq!(merged.counter(NodeKind::World, 0, "events"), 7);
    }

    #[test]
    fn aggregation_helpers() {
        let tele = Telemetry::new(0);
        let (a, b) = (Counter::new(), Counter::new());
        a.add(3);
        b.add(4);
        tele.register_counter(NodeKind::Host, 1, "sent", &a);
        tele.register_counter(NodeKind::Host, 2, "sent", &b);
        let snap = tele.snapshot();
        assert_eq!(snap.sum_counters(NodeKind::Host, "sent"), 7);
        assert_eq!(
            snap.counters_by_node(NodeKind::Host, "sent"),
            vec![(1, 3), (2, 4)]
        );
    }
}
