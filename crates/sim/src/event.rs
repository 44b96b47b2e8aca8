//! The deterministic event queue.
//!
//! A calendar queue (bucketed time-wheel) with a binary-heap overflow,
//! ordered by `(time, key)`, where `key` is a caller-supplied 64-bit
//! ordering key. The engine derives keys from event *content* — the
//! causing node and a per-node emission counter — rather than global
//! insertion order, so the relative order of two same-instant events
//! does not depend on which shard pushed first. That property is what
//! lets the sharded PDES engine replay the exact same-seed event order
//! at any shard count. Keys must be unique per instant (the engine
//! guarantees this by construction); ties would otherwise fire in an
//! unspecified but deterministic order.
//!
//! Near-future events — the overwhelming majority in a packet-level
//! simulation, where wire latencies and serialization delays are
//! microseconds — land in a fixed ring of buckets indexed by
//! `time >> BUCKET_SHIFT`. Pushing is an append onto a small vector;
//! popping sorts the active bucket lazily (once, when the cursor
//! reaches it) and then pops from its front. A push into the bucket
//! being drained is inserted in place only when it belongs within the
//! last `NEAR_TAIL` entries (the near-tail rule). Everything else —
//! events beyond the wheel horizon, behind the cursor after it advanced
//! past their bucket, or deeper inside the draining bucket — goes to
//! the overflow heap; every pop and peek compares the wheel head
//! against the overflow head by `(time, key)`, so the total order is
//! exactly the one a pure-heap implementation would produce wherever an
//! event is held.
//!
//! Payloads live in a slab and the wheel/heap carry `(time, key, slot)`
//! triples: sorting, mid-bucket inserts, and heap sift operations move
//! 24-byte entries instead of whole events (a `Packet`-carrying event
//! is ~10× that). The slab is a list of `CHUNK`-slot chunks that never
//! move: a burst adds chunks instead of doubling and copying one array,
//! so the slab holds at most one chunk past the most events ever
//! pending at once, and free slots are reused most recently freed
//! first. A bucket's buffer is the bucket's only while it holds events:
//! a drained bucket keeps it until the next one drains (a queue holding
//! one event at a time moves no buffer), then hands it to a shared
//! spare list, and a filling bucket takes from there. Spares and filled
//! buckets never outnumber the most buckets filled at once over the last
//! two wheel rotations, and a buffer over four times those rotations'
//! mean bucket depth is given back; the overflow heap gives back what a
//! flood grew once it is under a quarter full. So a burst's memory does
//! not outlive it, and in steady traffic the queue stops allocating. What
//! keeps a burst (a failure flood re-flooded by every host, pipelined
//! discovery) from going quadratic on same-bucket memmoves is the
//! near-tail rule: an in-place insert moves at most `NEAR_TAIL` entries
//! and the rest pay the heap's O(log n). [`EventQueue::stats`] counts both.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dumbnet_types::{heap, SimTime};

/// log2 of the bucket width in nanoseconds (4.096 µs per bucket).
const BUCKET_SHIFT: u32 = 12;
/// log2 of the wheel size. 1024 buckets × 4.096 µs ≈ 4.2 ms horizon —
/// comfortably covers packet flight times; long timers take the
/// overflow heap, which is no worse than the old implementation.
const WHEEL_BITS: u32 = 10;
const WHEEL: usize = 1 << WHEEL_BITS;
/// A push into the bucket being drained is inserted in place only when
/// at most this many entries sort after it: 32 × 24 B is twelve cache
/// lines, the most one insert may move. The storms' draining buckets
/// never grow past it and discovery's only grow at the tail; a failure
/// flood's 50 000-entry bucket sends everything deeper to the overflow
/// heap instead of shifting kilobytes per push.
const NEAR_TAIL: usize = 32;
/// log2 of the slots in one slab chunk. A layout constant, not a
/// setting: 64 engine events are 7.5 KB, the most the slab holds past
/// its high-water mark. Chunks four times larger cost each cell of a
/// sharded world a chunk it barely uses. The overflow heap shrinks no
/// further than `CHUNK` entries.
const CHUNK_BITS: u32 = 6;
const CHUNK: usize = 1 << CHUNK_BITS;
/// The capacity a `VecDeque` of entries first allocates; a buffer this
/// small is never too large to keep.
const MIN_BUFFER: usize = 4;

/// What a wheel bucket or the overflow heap holds per event.
type Entry = (SimTime, u64, u32);

/// What the queue did, as plain counters bumped on paths that already
/// branch. Deliberately *not* in the telemetry registry: which pushes
/// meet a draining bucket depends on how nodes are spread over cells,
/// so the values legitimately differ by shard count and would break the
/// byte-identical snapshot gates. Read them through
/// `Engine::queue_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Pushes inserted in place into the bucket being drained.
    pub in_place_inserts: u64,
    /// Entries those inserts moved (the deque shifts the shorter side);
    /// at most `NEAR_TAIL` each.
    pub entries_shifted: u64,
    /// Pushes that took the overflow heap: beyond the horizon, behind
    /// the cursor, or too deep inside the draining bucket.
    pub overflow_pushes: u64,
    /// Longest any bucket was while the cursor was on it.
    pub largest_bucket: u64,
    /// The most events pending at once: the slab slots the queue holds,
    /// to within one chunk. Summed over several queues, it is what
    /// their slabs hold together.
    pub pending_high_water: u64,
    /// Buckets that filled with a drained bucket's buffer (the idle
    /// bucket's or a spare) instead of a new one.
    pub buffers_reused: u64,
    /// Drained buffers given back: the spares were at their count
    /// bound, or the buffer was over four times the mean bucket depth.
    pub buffers_released: u64,
}

impl std::ops::AddAssign for QueueStats {
    /// Folds another queue's counters in: counts add, `largest_bucket`
    /// is the larger of the two.
    fn add_assign(&mut self, other: QueueStats) {
        self.pushes += other.pushes;
        self.in_place_inserts += other.in_place_inserts;
        self.entries_shifted += other.entries_shifted;
        self.overflow_pushes += other.overflow_pushes;
        self.largest_bucket = self.largest_bucket.max(other.largest_bucket);
        self.pending_high_water += other.pending_high_water;
        self.buffers_reused += other.buffers_reused;
        self.buffers_released += other.buffers_released;
    }
}

/// One wheel slot. `sorted` buckets hold items in *ascending*
/// `(time, key)` order; the earliest event pops off the front in O(1).
/// Ascending order keeps the hot burst case — a handler scheduling
/// follow-up events into the bucket the cursor is draining — an O(1)
/// tail append in the common case, because per-node emission counters
/// grow monotonically and a handler usually schedules at times ≥ now.
/// (A descending layout puts exactly those pushes at the *front*, an
/// O(n) memmove that goes quadratic on same-instant bursts — the fig10
/// all-pairs ping pattern.) An empty bucket holds no buffer.
#[derive(Debug, Default)]
struct Bucket {
    items: VecDeque<Entry>,
    sorted: bool,
    /// The most entries the bucket has held since the cursor sorted it.
    depth: u32,
}

/// The calendar wheel's buckets, and the buffers drained buckets left
/// behind.
#[derive(Debug)]
struct Wheel {
    buckets: [Bucket; WHEEL],
    /// Drained buckets' buffers, for the next bucket that fills.
    spare: Vec<VecDeque<Entry>>,
    /// The bucket drained last. It keeps its buffer until another
    /// bucket drains or a filling bucket finds no spare: a queue
    /// holding one event at a time (a sharded cell's) moves one buffer
    /// between two buckets, or none, instead of through the spares on
    /// every event.
    idle: Option<usize>,
    /// Buckets holding events now, and the idle one.
    filled: usize,
    /// What the cursor's current wheel rotation and the one before it
    /// asked of the buckets.
    rotations: [Rotation; 2],
    /// The rotation (`base_vb >> WHEEL_BITS`) `rotations[0]` is for.
    rotation: u64,
}

/// What one wheel rotation asked of the buckets.
#[derive(Debug, Default, Clone, Copy)]
struct Rotation {
    /// The most buckets holding events at once.
    filled: usize,
    /// Buffers handed on, and the sum of their buckets' depths.
    drained: usize,
    depths: usize,
}

/// A time-ordered, insertion-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Boxed: the wheel never grows, and a queue sits inline in every
    /// shard cell, so its size is heap there.
    wheel: Box<Wheel>,
    /// Virtual index (`nanos >> BUCKET_SHIFT`, unwrapped) of the bucket
    /// the cursor is on; the wheel window is `[base_vb, base_vb+WHEEL)`.
    base_vb: u64,
    /// Events pending inside the wheel window.
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Event payloads in chunks of `CHUNK` slots, indexed by the slot
    /// carried in wheel/overflow entries. `stats.pending_high_water`
    /// slots have been handed out; the next fresh one is that number.
    slab: Vec<Box<[Option<E>; CHUNK]>>,
    /// Free slots, the most recently freed last; never longer than the
    /// slab.
    free: Vec<u32>,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue {
            wheel: Box::new(Wheel {
                buckets: std::array::from_fn(|_| Bucket::default()),
                spare: Vec::new(),
                idle: None,
                filled: 0,
                rotations: [Rotation::default(); 2],
                rotation: 0,
            }),
            base_vb: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            stats: QueueStats::default(),
        }
    }
}

/// Where `(at, key)` goes in the ascending `items`, searched from the
/// tail. A fresh push belongs at or near it — handlers schedule at
/// times ≥ now with growing per-node counters, so it is usually the
/// latest entry but for a few pre-scheduled ones — and a binary search
/// over the whole bucket pays its full depth in mispredicted branches
/// to find that out. Galloping back from the tail costs O(log d) for an
/// entry `d` places from it, at worst twice the binary search.
fn sorted_pos(items: &VecDeque<Entry>, at: SimTime, key: u64) -> usize {
    let after = |ix: usize| (items[ix].0, items[ix].1) > (at, key);
    // Every entry at `hi` or beyond sorts after the new one, every
    // entry before `lo` does not.
    let (mut lo, mut hi, mut step) = (0, items.len(), 1);
    while hi > lo {
        let probe = hi.saturating_sub(step);
        if after(probe) {
            hi = probe;
            step *= 2;
        } else {
            lo = probe + 1;
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if after(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn vb_of(at: SimTime) -> u64 {
    at.nanos() >> BUCKET_SHIFT
}

const fn slot_of(vb: u64) -> usize {
    (vb as usize) & (WHEEL - 1)
}

impl Wheel {
    /// Gives the empty bucket `ix` a drained bucket's buffer, if there
    /// is one: its own if it is the idle bucket, else the last spare,
    /// else the idle bucket's.
    fn fill(&mut self, ix: usize, stats: &mut QueueStats) {
        self.buckets[ix].sorted = false;
        if self.idle == Some(ix) {
            self.idle = None;
            stats.buffers_reused += 1;
            return;
        }
        let buffer = self.spare.pop().or_else(|| {
            let idle = self.idle.take()?;
            self.filled -= 1;
            Some(std::mem::take(&mut self.buckets[idle].items))
        });
        if let Some(buffer) = buffer {
            self.buckets[ix].items = buffer;
            stats.buffers_reused += 1;
        }
        self.filled += 1;
        self.rotations[0].filled = self.rotations[0].filled.max(self.filled);
    }

    /// The bucket `ix` just drained: it becomes the idle bucket, and the
    /// one idle before it hands its buffer on.
    fn drained(&mut self, ix: usize, base_vb: u64, stats: &mut QueueStats) {
        if let Some(last) = self.idle.replace(ix) {
            self.hand_on(last, base_vb, stats);
        }
    }

    /// Keeps the buffer of the drained bucket `ix` as a spare or gives
    /// it back. It is kept if it is at most four times the mean depth of
    /// the buckets drained in this wheel rotation and the last, and if
    /// the spares and the filled buckets number fewer than the most
    /// buckets filled at once over those two rotations, so what a burst
    /// grew does not outlive it.
    fn hand_on(&mut self, ix: usize, base_vb: u64, stats: &mut QueueStats) {
        let bucket = &mut self.buckets[ix];
        let buffer = std::mem::take(&mut bucket.items);
        let depth = bucket.depth as usize;
        self.filled -= 1;
        let rotation = base_vb >> WHEEL_BITS;
        if rotation != self.rotation {
            let last = if rotation == self.rotation + 1 {
                self.rotations[0]
            } else {
                Rotation::default()
            };
            let now = Rotation {
                filled: self.filled + 1,
                ..Rotation::default()
            };
            self.rotations = [now, last];
            self.rotation = rotation;
        }
        self.rotations[0].drained += 1;
        self.rotations[0].depths += depth;
        let [now, last] = self.rotations;
        let capacity = buffer.capacity();
        let sized = capacity <= MIN_BUFFER
            || capacity * (now.drained + last.drained) <= 4 * (now.depths + last.depths);
        if sized && self.spare.len() + self.filled < now.filled.max(last.filled) {
            self.spare.push(buffer);
        } else {
            stats.buffers_released += 1;
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// The heap the queue holds: the wheel, its buckets' buffers and
    /// the spares, the overflow heap, and the slab.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let wheel = &self.wheel;
        let buffers: usize = wheel.buckets.iter().map(|b| heap::deque(&b.items)).sum();
        let spares: usize = wheel.spare.iter().map(heap::deque).sum();
        std::mem::size_of::<Wheel>()
            + buffers
            + heap::vec(&wheel.spare)
            + spares
            + self.overflow.capacity() * std::mem::size_of::<Reverse<Entry>>()
            + heap::vec(&self.slab)
            + self.slab.len() * std::mem::size_of::<[Option<E>; CHUNK]>()
            + heap::vec(&self.free)
    }

    fn cell(&mut self, slot: u32) -> &mut Option<E> {
        &mut self.slab[(slot >> CHUNK_BITS) as usize][slot as usize & (CHUNK - 1)]
    }

    fn store(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            *self.cell(slot) = Some(event);
            slot
        } else {
            self.store_fresh(event)
        }
    }

    /// Every slot handed out is full: this push sets the high-water
    /// mark, and opens a chunk when the last one is full.
    #[cold]
    fn store_fresh(&mut self, event: E) -> u32 {
        let slot = u32::try_from(self.stats.pending_high_water).expect("slab outgrew u32 slots");
        if (slot as usize).is_multiple_of(CHUNK) {
            self.slab.push(Box::new(std::array::from_fn(|_| None)));
        }
        *self.cell(slot) = Some(event);
        self.stats.pending_high_water += 1;
        slot
    }

    fn take(&mut self, slot: u32) -> E {
        if self.free.len() == self.free.capacity() {
            self.grow_free();
        }
        // Free-list push first: with nothing fallible after the move,
        // the payload goes from the slab straight to the caller.
        self.free.push(slot);
        self.cell(slot).take().expect("occupied slot")
    }

    /// The free list is full. It grows by doubling, but never past the
    /// slab's slots: it holds 4 bytes a slot at most, not twice that.
    #[cold]
    fn grow_free(&mut self) {
        let (len, slots) = (self.free.len(), self.slab.len() * CHUNK);
        self.free.reserve_exact(len.max(CHUNK).min(slots - len));
    }

    /// Schedules `event` at `at` with ordering key `key`. Same-instant
    /// events fire in ascending key order regardless of push order.
    pub fn push(&mut self, at: SimTime, key: u64, event: E) {
        let slot = self.store(event);
        self.stats.pushes += 1;
        let vb = vb_of(at);
        if self.wheel_len == 0 {
            // Empty wheel: the window can be repositioned freely (pop
            // compares against the overflow head, so order still holds).
            self.base_vb = vb;
        }
        let wheel = &mut *self.wheel;
        if vb >= self.base_vb && vb - self.base_vb < WHEEL as u64 {
            let ix = slot_of(vb);
            if wheel.buckets[ix].items.is_empty() {
                wheel.fill(ix, &mut self.stats);
            }
            let bucket = &mut wheel.buckets[ix];
            let n = bucket.items.len();
            if !bucket.sorted {
                bucket.items.push_back((at, key, slot));
                self.wheel_len += 1;
                return;
            }
            // The cursor already sorted this bucket (ascending) and is
            // draining it: keep the invariant, but only near the tail.
            let near = n <= NEAR_TAIL || {
                let deep = bucket.items[n - NEAR_TAIL - 1];
                (deep.0, deep.1) <= (at, key)
            };
            if near {
                let pos = sorted_pos(&bucket.items, at, key);
                if pos == n {
                    bucket.items.push_back((at, key, slot));
                } else {
                    bucket.items.insert(pos, (at, key, slot));
                }
                self.wheel_len += 1;
                self.stats.in_place_inserts += 1;
                self.stats.entries_shifted += pos.min(n - pos) as u64;
                self.stats.largest_bucket = self.stats.largest_bucket.max(n as u64 + 1);
                bucket.depth = bucket.depth.max(n as u32 + 1);
                return;
            }
        }
        // Beyond the horizon, behind a cursor that an earlier overflow
        // pop left ahead, or deeper than NEAR_TAIL in the draining bucket.
        self.stats.overflow_pushes += 1;
        self.overflow.push(Reverse((at, key, slot)));
    }

    /// Advances the cursor to the first non-empty bucket and returns the
    /// `(time, key)` of its earliest event. Caller guarantees
    /// `wheel_len > 0`.
    fn wheel_head(&mut self) -> (SimTime, u64) {
        let wheel = &mut *self.wheel;
        while wheel.buckets[slot_of(self.base_vb)].items.is_empty() {
            self.base_vb += 1;
        }
        let bucket = &mut wheel.buckets[slot_of(self.base_vb)];
        if !bucket.sorted {
            let n = bucket.items.len();
            if n > 1 {
                bucket
                    .items
                    .make_contiguous()
                    .sort_unstable_by_key(|x| (x.0, x.1));
            }
            bucket.sorted = true;
            self.stats.largest_bucket = self.stats.largest_bucket.max(n as u64);
            bucket.depth = n as u32;
        }
        let head = bucket.items.front().expect("non-empty bucket");
        (head.0, head.1)
    }

    fn pop_wheel(&mut self) -> (SimTime, E) {
        let wheel = &mut *self.wheel;
        let ix = slot_of(self.base_vb);
        let bucket = &mut wheel.buckets[ix];
        let (t, _, slot) = bucket.items.pop_front().expect("non-empty bucket");
        if bucket.items.is_empty() {
            wheel.drained(ix, self.base_vb, &mut self.stats);
        }
        self.wheel_len -= 1;
        (t, self.take(slot))
    }

    fn pop_overflow(&mut self) -> (SimTime, E) {
        let Reverse((t, _, slot)) = self.overflow.pop().expect("non-empty overflow");
        let (len, capacity) = (self.overflow.len(), self.overflow.capacity());
        if capacity > 4 * len && capacity > CHUNK {
            // Under a quarter full: give back all but twice what it
            // holds, so a flood's capacity does not outlive the flood.
            self.overflow.shrink_to((2 * len).max(CHUNK));
        }
        (t, self.take(slot))
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match (self.wheel_len > 0, self.overflow.peek().is_some()) {
            (false, false) => None,
            (true, false) => {
                self.wheel_head();
                Some(self.pop_wheel())
            }
            (false, true) => Some(self.pop_overflow()),
            (true, true) => {
                let w = self.wheel_head();
                let Reverse((t, s, _)) = self.overflow.peek().expect("peeked");
                if w <= (*t, *s) {
                    Some(self.pop_wheel())
                } else {
                    Some(self.pop_overflow())
                }
            }
        }
    }

    /// Pops the earliest event only if its timestamp is ≤ `until`.
    /// Equivalent to a `peek_time` check followed by `pop`, but does the
    /// cursor advance and bucket sort once instead of twice. A
    /// synchronization window `[now, end)` pops with `until = end − 1 ns`
    /// (time is whole nanoseconds).
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let wheel = if self.wheel_len > 0 {
            Some(self.wheel_head())
        } else {
            None
        };
        let over = self.overflow.peek().map(|Reverse((t, s, _))| (*t, *s));
        let head = match (wheel, over) {
            (None, None) => return None,
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (Some(w), Some(o)) => w.min(o),
        };
        if head.0 > until {
            return None;
        }
        if wheel == Some(head) {
            Some(self.pop_wheel())
        } else {
            Some(self.pop_overflow())
        }
    }

    /// The `(time, key)` of the earliest event without removing it.
    /// Used by the zero-lookahead global merge, which must compare
    /// heads *across* shard queues before popping.
    #[must_use]
    pub fn peek_head(&self) -> Option<(SimTime, u64)> {
        let wheel_head = if self.wheel_len > 0 {
            let mut vb = self.base_vb;
            loop {
                let bucket = &self.wheel.buckets[slot_of(vb)];
                if !bucket.items.is_empty() {
                    break Some(if bucket.sorted {
                        let f = bucket.items.front().expect("non-empty");
                        (f.0, f.1)
                    } else {
                        bucket
                            .items
                            .iter()
                            .map(|e| (e.0, e.1))
                            .min()
                            .expect("non-empty")
                    });
                }
                vb += 1;
            }
        } else {
            None
        };
        let over_head = self.overflow.peek().map(|Reverse((t, s, _))| (*t, *s));
        match (wheel_head, over_head) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (h, None) | (None, h) => h,
        }
    }

    /// The timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_head().map(|(at, _)| at)
    }

    /// What the queue has done since it was created.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Returns `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_types::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::ZERO + SimDuration::from_nanos(n);
        q.push(t(30), 0, "c");
        q.push(t(10), 1, "a");
        q.push(t(20), 2, "b");
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.peek_head(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn key_order_wins_at_equal_times_regardless_of_push_order() {
        let mut q = EventQueue::new();
        // Push keys in a scrambled order; pops must come out by key.
        for i in 0..100u64 {
            q.push(SimTime::ZERO, (i * 37) % 100, (i * 37) % 100);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn len_tracks() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_recycle() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Steady-state churn: capacity must stop growing once the
        // high-water mark (2 pending) is reached.
        for i in 0..1_000u64 {
            q.push(t(i), i, i);
            q.push(t(i), i + 1, i + 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
            assert_eq!(q.pop().map(|(_, e)| e), Some(i + 1));
        }
        assert_eq!(q.stats().pending_high_water, 2);
        assert_eq!(q.slab.len(), 1, "one chunk holds the high-water mark");
    }

    #[test]
    fn far_future_takes_overflow_and_comes_back_ordered() {
        let mut q = EventQueue::new();
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Anchor the window near zero, then push past the ~4 ms horizon.
        q.push(t(3), 0, "early");
        q.push(t(50_000), 1, "late");
        q.push(t(20_000), 2, "mid");
        assert!(!q.overflow.is_empty(), "horizon overflow expected");
        assert_eq!(q.pop(), Some((t(3), "early")));
        assert_eq!(q.pop(), Some((t(20_000), "mid")));
        assert_eq!(q.pop(), Some((t(50_000), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_split_across_wheel_and_overflow_stay_key_ordered() {
        let mut q = EventQueue::new();
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Window anchored near zero; t=10 ms exceeds the horizon.
        q.push(t(1), 100, 100u32);
        q.push(t(10_000), 0, 0);
        assert!(!q.overflow.is_empty(), "horizon overflow expected");
        assert_eq!(q.pop(), Some((t(1), 100)));
        // Wheel now empty: this push reseats the window, so the same
        // instant lives in the wheel AND the overflow. The overflow
        // event carries the smaller key and must still come out first.
        q.push(t(10_000), 1, 1);
        assert_eq!(q.wheel_len, 1, "reseated push should take the wheel");
        assert_eq!(q.peek_head(), Some((t(10_000), 0)));
        assert_eq!(q.pop(), Some((t(10_000), 0)));
        assert_eq!(q.pop(), Some((t(10_000), 1)));
    }

    #[test]
    fn push_behind_cursor_still_delivered_in_order() {
        let mut q = EventQueue::new();
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        q.push(t(0), 0, "first");
        q.push(t(6_000), 1, "ovf"); // Past the horizon → overflow.
        assert_eq!(q.pop(), Some((t(0), "first")));
        // Wheel empty: this reseats the window at ~7 ms…
        q.push(t(7_000), 2, "wheel");
        // …so the overflow event at 6 ms pops with the cursor already
        // parked *ahead* of it, on the 7 ms bucket.
        assert_eq!(q.pop(), Some((t(6_000), "ovf")));
        // A push between now (6 ms) and the cursor (7 ms) is perfectly
        // legal and must detour via overflow, not be lost or reordered.
        q.push(t(6_500), 3, "behind");
        assert_eq!(q.pop(), Some((t(6_500), "behind")));
        assert_eq!(q.pop(), Some((t(7_000), "wheel")));
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_into_the_draining_bucket_keep_it_sorted() {
        use std::collections::BTreeSet;
        let mut q = EventQueue::new();
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut model = BTreeSet::new();
        // One bucket's worth of standing events, then a pop so the
        // cursor sorts it: every later push is a sorted insert.
        for i in 0..40u64 {
            q.push(t(100 + 10 * i), i, i);
            model.insert((t(100 + 10 * i), i));
        }
        let mut now = 0;
        for j in 0..400u64 {
            if j % 3 == 0 {
                let (at, key) = model.pop_first().expect("model non-empty");
                assert_eq!(q.pop(), Some((at, key)));
                now = at.nanos();
            }
            // Anywhere from the head of the bucket to past its tail,
            // colliding with standing instants under larger keys.
            let at = t(now + (j * 37) % 450);
            q.push(at, 40 + j, 40 + j);
            model.insert((at, 40 + j));
        }
        for (at, key) in model {
            assert_eq!(q.pop(), Some((at, key)));
        }
        assert!(q.is_empty());
    }

    /// The failure-flood regime against a `BTreeSet` model: one bucket
    /// holding 50 000 entries when the cursor sorts it, and two pushes
    /// per pop while it drains — at its head, middle and tail, past it,
    /// and beyond the horizon — so the wheel and the overflow heap both
    /// hold the bucket's instants. Every pop variant takes its turn and
    /// `peek_head` / `peek_time` / `len` are compared after every step.
    #[test]
    fn flood_bucket_matches_the_model_and_shifts_near_tail_only() {
        use std::collections::BTreeSet;
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let (mut key, mut rand) = (0u64, 0x2545_F491_4F6C_DD1Du64);
        let mut draw = |below: u64| {
            rand ^= rand << 13;
            rand ^= rand >> 7;
            rand ^= rand << 17;
            rand % below
        };
        let mut push = |q: &mut EventQueue<u64>, model: &mut BTreeSet<_>, at: u64| {
            key += 1;
            q.push(t(at), key, key);
            model.insert((t(at), key));
        };
        let agree = |q: &EventQueue<u64>, model: &BTreeSet<(SimTime, u64)>| {
            assert_eq!(q.peek_head(), model.first().copied());
            assert_eq!(q.peek_time(), model.first().map(|h| h.0));
            assert_eq!(q.len(), model.len());
        };
        // The flood lands in bucket 10 before the cursor gets there;
        // its last 64 ns are left to the tail pushes below.
        let (lo, hi) = (10 * BUCKET, 11 * BUCKET);
        for _ in 0..50_000 {
            let at = lo + draw(BUCKET - 64);
            push(&mut q, &mut model, at);
        }
        agree(&q, &model);
        let mut now = lo;
        for step in 0..120_000u64 {
            if model.is_empty() {
                break;
            }
            if step < 30_000 {
                // Re-floods while draining: two pushes per pop. The
                // first goes anywhere from the head on …
                let ahead = (hi - 64).saturating_sub(now).max(1);
                let at = match step % 5 {
                    0 => now,                            // equal to the head's instant
                    1 => now + draw(ahead),              // anywhere in the bucket
                    2 => now + ahead / 2,                // its middle
                    3 => hi + draw(3 * BUCKET),          // past it
                    _ => now + 5_000_000 + draw(BUCKET), // beyond the horizon
                };
                push(&mut q, &mut model, at);
                // … the second at a slowly advancing tail instant or the
                // one before it, which is a near-tail insert while the
                // newest instant is young and a deep one after.
                let tail = hi - 64 + step / 512;
                push(&mut q, &mut model, tail - draw(2));
                agree(&q, &model);
            }
            let (at, k) = *model.first().expect("non-empty");
            let popped = match step % 3 {
                0 => q.pop(),
                1 => q.pop_before(at),
                _ => {
                    assert_eq!(q.pop_before(t(at.nanos() - 1)), None);
                    q.pop()
                }
            };
            assert_eq!(popped, Some((at, k)), "step {step}");
            model.pop_first();
            now = now.max(at.nanos()).min(hi - 65);
            agree(&q, &model);
        }
        assert!(q.is_empty() && model.is_empty());
        let s = q.stats();
        assert_eq!(s.pushes, 50_000 + 2 * 30_000);
        assert!(s.largest_bucket >= 50_000, "{s:?}");
        // Both homes were used, and an in-place insert never moved more
        // than the near-tail window.
        assert!(
            s.overflow_pushes > 10_000 && s.in_place_inserts > 10_000,
            "{s:?}"
        );
        assert!(
            s.entries_shifted <= NEAR_TAIL as u64 * s.in_place_inserts,
            "{s:?}"
        );
        // Every event drained: no bucket holds a buffer, and the spares
        // are within their bound.
        for (ix, bucket) in q.wheel.buckets.iter().enumerate() {
            if q.wheel.idle != Some(ix) {
                assert_eq!(bucket.items.capacity(), 0, "bucket {ix}");
            }
        }
        let [now, last] = q.wheel.rotations;
        assert!(q.wheel.spare.len() <= now.filled.max(last.filled));
    }

    /// A bucket refilled on every rotation of the wheel reuses the buffer
    /// it drained the rotation before (it is still the idle bucket):
    /// past the first turn, refilling allocates nothing.
    #[test]
    fn a_bucket_refilled_within_the_bound_reuses_its_buffer() {
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut first = None;
        for turn in 0..4u64 {
            let lo = (5 + turn * WHEEL as u64) * BUCKET;
            for i in 0..256 {
                q.push(t(lo + i), i, i);
            }
            for i in 0..256 {
                assert_eq!(q.pop(), Some((t(lo + i), i)), "turn {turn}");
            }
            assert_eq!(q.stats().buffers_reused, turn, "turn {turn}");
            assert_eq!(
                *first.get_or_insert(q.heap_bytes()),
                q.heap_bytes(),
                "turn {turn}"
            );
        }
        assert_eq!(q.stats().buffers_released, 0);
    }

    /// The bytes a queue of `P` payloads may hold once a burst has
    /// drained: per event of its high-water mark a slot and a 24-byte
    /// index entry, one chunk of slack, and the wheel.
    fn drained_bound<P>(q: &EventQueue<P>) -> usize {
        let slot = std::mem::size_of::<Option<P>>();
        let index = std::mem::size_of::<Entry>();
        q.stats().pending_high_water as usize * (slot + index)
            + CHUNK * slot
            + std::mem::size_of::<Wheel>()
    }

    /// Steady traffic, a burst of 20 000 events into eight buckets
    /// ahead of the cursor, and steady traffic again: once the burst has
    /// drained and two wheel rotations have passed, the queue holds no
    /// more than its high-water mark's slots and index entries, plus one
    /// chunk and the wheel. A slab grown by doubling, or buckets keeping
    /// the burst's buffers, hold more.
    #[test]
    fn a_drained_burst_leaves_the_high_water_bound() {
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        const ROTATION: u64 = BUCKET * WHEEL as u64;
        // An engine event's size, so the slab dominates as it does there.
        type Payload = [u64; 15];
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut q: EventQueue<Payload> = EventQueue::new();
        let mut key = 0u64;
        let mut steady = |q: &mut EventQueue<Payload>, from: u64, to: u64| {
            // Three events a bucket, each pushed a few buckets ahead of
            // the one popped.
            let mut at = from;
            while at < to {
                for _ in 0..3 {
                    key += 1;
                    q.push(t(at + 5 * BUCKET + key % BUCKET), key, [key; 15]);
                }
                while q.peek_time().is_some_and(|head| head.nanos() < at) {
                    q.pop();
                }
                at += BUCKET;
            }
        };
        steady(&mut q, 0, 3 * ROTATION);
        let burst = 3 * ROTATION + 100 * BUCKET;
        for i in 0..20_000u64 {
            q.push(t(burst + (i % 8) * BUCKET + i % 97), 1 << 40 | i, [i; 15]);
        }
        let during = q.heap_bytes();
        steady(&mut q, 3 * ROTATION, 6 * ROTATION);
        let s = q.stats();
        assert!(s.pending_high_water >= 20_000, "{s:?}");
        assert!(s.largest_bucket >= 2_500, "{s:?}");
        let (after, bound) = (q.heap_bytes(), drained_bound(&q));
        assert!(
            after <= bound,
            "{after} B after the burst, bound {bound} B: {s:?}"
        );
        assert!(
            after < during,
            "{after} B after the burst, {during} B during it"
        );
        assert!(s.buffers_released >= 1, "{s:?}");
    }

    /// Random pushes and pops with bursts against a `BinaryHeap`
    /// reference: every pop variant returns the reference's next
    /// event, and the slab holds no slot past its high-water mark, which
    /// is the most events the reference held at once.
    #[test]
    fn random_bursts_pop_in_heap_order_with_slots_recycled() {
        use std::collections::BinaryHeap;
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        for seed in 1..=4u64 {
            let mut rand = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed);
            let mut draw = |below: u64| {
                rand ^= rand << 13;
                rand ^= rand >> 7;
                rand ^= rand << 17;
                rand % below
            };
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let (mut now, mut key, mut most) = (0u64, 0u64, 0usize);
            for step in 0..40_000u64 {
                let pushes = match draw(500) {
                    0 => 500 + draw(3_000), // a burst
                    n if n < 250 => 1,
                    _ => 0,
                };
                for _ in 0..pushes {
                    let at = now
                        + match draw(10) {
                            0..=3 => draw(BUCKET),                // the draining bucket
                            4..=7 => draw(64 * BUCKET),           // the wheel
                            8 => draw(4 * WHEEL as u64 * BUCKET), // past the horizon
                            _ => 0,                               // this instant
                        };
                    key += 1;
                    q.push(t(at), key, key);
                    model.push(Reverse((t(at), key)));
                }
                most = most.max(model.len());
                let want = model.peek().map(|Reverse(head)| *head);
                assert_eq!(q.peek_head(), want, "seed {seed} step {step}");
                let got = match step % 3 {
                    0 => q.pop(),
                    1 => want.and_then(|(at, _)| q.pop_before(at)),
                    _ => q.pop_before(t(now)),
                };
                let Some((at, k)) = got else {
                    assert!(step % 3 == 2 || model.is_empty(), "seed {seed} step {step}");
                    if let Some(Reverse((at, _))) = model.peek() {
                        now = at.nanos();
                    }
                    continue;
                };
                assert_eq!(
                    model.pop(),
                    Some(Reverse((at, k))),
                    "seed {seed} step {step}"
                );
                now = at.nanos();
            }
            while let Some(Reverse(want)) = model.pop() {
                assert_eq!(q.pop(), Some(want), "seed {seed} drain");
            }
            assert!(q.is_empty());
            let s = q.stats();
            assert_eq!(s.pending_high_water, most as u64, "seed {seed}");
            assert_eq!(q.slab.len(), most.div_ceil(CHUNK), "seed {seed}");
        }
    }

    /// `pop_before(until)` pops exactly the events at or before
    /// `until`: the bound is inclusive, and one nanosecond less is the
    /// exclusive window end `run_window` asks for.
    #[test]
    fn pop_before_respects_bound() {
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        // (bound, expected pop) in order, over events at 10 and 20 µs.
        let table = [
            (t(9_999), None),
            (t(10_000), Some((t(10_000), "a"))),
            (t(20_000 - 1), None),
            (t(20_000), Some((t(20_000), "b"))),
            (t(u64::MAX), None),
        ];
        let mut q = EventQueue::new();
        q.push(t(10_000), 0, "a");
        q.push(t(20_000), 1, "b");
        for (bound, want) in table {
            assert_eq!(q.pop_before(bound), want, "bound {bound:?}");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraps_across_many_horizons() {
        let mut q = EventQueue::new();
        let t = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        // Scatter pushes over ~100 ms (≈ 25 horizons) and check the
        // drain order against a sorted reference.
        let mut expect = Vec::new();
        for i in 0..1000u64 {
            let at = t(i * 97 % 100_000);
            q.push(at, i, i);
            expect.push((at, i));
        }
        expect.sort();
        for (at, i) in expect {
            assert_eq!(q.pop(), Some((at, i)));
        }
        assert!(q.is_empty());
    }
}
