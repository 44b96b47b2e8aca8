//! The heap census against the allocator.
//!
//! This test binary installs a counting global allocator (per thread, so
//! the tests of this file do not see each other's bytes) and runs two
//! workload shapes: `hybrid_incast`'s (a fat-tree on the hybrid engine,
//! flow-plane elephants, packet-plane mice with ECN flowlet routing) at
//! k = 16, and `fabric_mix`'s (cold path caches, every host streaming).
//! At every step it samples the allocator's live bytes and
//! [`Fabric::heap_census`] together, and at the peak sample the census
//! must explain at least 90 % of what is live (and at most 105 %: the
//! B-tree rows are estimates): the residue is the named gap, not an
//! unknown.
//!
//! It also pins each owner's bytes per host, switch and wire right after
//! `Fabric::build_hybrid`, the allocation count of that build, and the
//! registry's bytes per node once every node has started, so a layout
//! change that moves the heap fails here and names its owner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dumbnet::ext::ecn::EcnFlowletRouting;
use dumbnet::host::agent::AppAction;
use dumbnet::host::{HostAgent, HostAgentConfig};
use dumbnet::sim::{Engine, HeapCensus, HybridWorld, World};
use dumbnet::topology::{generators, spath};
use dumbnet::types::{HostId, MacAddr, SimDuration, SimTime};
use dumbnet::{Fabric, FabricConfig};

struct Counting;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static ON: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: i64, allocs: u64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when nothing is counted any more.
    let _ = ON.try_with(|on| {
        if on.get() {
            LIVE.with(|l| l.set(l.get() + bytes));
            ALLOCS.with(|a| a.set(a.get() + allocs));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counters are thread-local cells and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), 0);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: the caller's pointer, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts counting this thread's heap from zero.
fn start() {
    LIVE.with(|l| l.set(0));
    ALLOCS.with(|a| a.set(0));
    ON.with(|on| on.set(true));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The samples' peak: live bytes, and the census taken with them.
struct Peak {
    live: i64,
    census: HeapCensus,
}

impl Peak {
    fn new() -> Peak {
        Peak {
            live: 0,
            census: HeapCensus::default(),
        }
    }

    /// Reads the live bytes first, so the census's own rows are not in
    /// them.
    fn sample<W: Engine>(&mut self, fabric: &Fabric<W>) {
        let live = live();
        if live > self.live {
            self.live = live;
            self.census = fabric.heap_census();
        }
    }

    fn assert_explained(&self, shape: &str) {
        let explained = self.census.total() as f64 / self.live as f64;
        // Above 100 % the B-tree estimates run high; well above it, an
        // owner would be counted twice.
        assert!(
            (0.90..=1.05).contains(&explained),
            "{shape}: the census explains {:.1} % of the {} live bytes at the peak:\n{}",
            explained * 100.0,
            self.live,
            self.census
        );
    }
}

/// `hybrid_incast`'s shape at k = 16: 1 024 hosts, 320 switches.
const K: usize = 16;
const HOSTS_PER_EDGE: usize = 8;
const SEED: u64 = 14;

fn incast_host(id: HostId, mut hc: HostAgentConfig) -> HostAgent {
    let h = id.get();
    if h % 40 == 5 {
        hc.actions = vec![AppAction::DataStream {
            at: SimDuration::from_millis(30),
            dst: MacAddr::for_host(if h % 80 == 5 { 1 } else { h * 7 % 1024 }),
            flow: 140,
            packets: 100,
            bytes: 600,
            interval: SimDuration::from_micros(50),
        }];
    }
    HostAgent::with_routing(
        id,
        hc,
        Box::new(EcnFlowletRouting::new(
            SimDuration::from_micros(500),
            SimDuration::from_micros(200),
        )),
    )
}

#[test]
fn census_explains_the_incast_peak() {
    start();
    let g = generators::fat_tree(K, HOSTS_PER_EDGE, None);
    let cfg = FabricConfig {
        seed: SEED,
        ..FabricConfig::default()
    };
    let world = HybridWorld::new(World::new(cfg.seed));
    let controller = dumbnet::controller::Controller::new;
    let mut fabric = Fabric::assemble(world, g.topology, cfg, &g.groups, incast_host, controller)
        .expect("fat-tree fabric builds")
        .bind_flow_edges();
    let mut peak = Peak::new();
    peak.sample(&fabric);
    // Elephants into host 1 from across the fabric, on shortest routes.
    let topo = fabric.topology.clone();
    let switch_of = |h: u64| topo.host(HostId(h)).expect("host").attached.switch;
    let to_victim = spath::distances(&topo, switch_of(1));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SEED);
    for src in (2..1024).step_by(64) {
        let route = spath::shortest_route_over(&topo, switch_of(src), &to_victim, &mut rng)
            .expect("fat-tree is connected");
        let path = fabric
            .flow_path(HostId(src), HostId(1), &route)
            .expect("route maps onto flow edges");
        fabric.world.start_elephant(path, 25_000_000);
    }
    let step = SimDuration::from_millis(2);
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + SimDuration::from_millis(60) {
        t = t + step;
        let _ = fabric.world.advance(t);
        peak.sample(&fabric);
    }
    peak.assert_explained("hybrid_incast shape");
}

/// The slab slot of one engine event (`Option<Event>`, asserted in
/// `sim::engine`), its 24-byte wheel or overflow entry, the slab's
/// chunk, and the wheel of 1 024 buckets: what
/// `census_explains_the_fabric_mix_peak` allows the queue row per event
/// of its high-water mark.
const EVENT_SLOT: usize = 120;
const QUEUE_INDEX: usize = 24;
const CHUNK: usize = 64 * EVENT_SLOT;
const WHEEL: usize = 1_024 * 40;

#[test]
fn census_explains_the_fabric_mix_peak() {
    start();
    let gen = generators::fat_tree(8, 4, None);
    let cores = gen.group("core").to_vec();
    let hosts = gen.topology.host_count() as u64;
    let mut fabric = Fabric::build_with(gen.topology, FabricConfig::default(), |id, mut hc| {
        let h = id.get();
        hc.actions = (1..=4)
            .map(|j| AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(1 + (h * 37 + j * 11) % (hosts - 1)),
                flow: h * 4 + j,
                packets: 200,
                bytes: 1000,
                interval: SimDuration::from_micros(20),
            })
            .collect();
        HostAgent::new(id, hc)
    })
    .expect("fabric builds");
    let mut peak = Peak::new();
    peak.sample(&fabric);
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    for n in 1..=40 {
        if n == 20 {
            // The benchmark's failure: the aggregation–core trunk that
            // carried the most packets fails at 20 ms and recovers at
            // 35 ms, and its stage-1 flood fills the event queue.
            let mut busiest: Option<(u64, _)> = None;
            for l in fabric.topology.links() {
                let (a, b) = (l.a.switch, l.b.switch);
                if !cores.contains(&a) && !cores.contains(&b) {
                    continue;
                }
                let wire = fabric.trunk_wire(a, b).expect("trunk has a wire");
                let sent = fabric.world.link_stats(wire).sent;
                if busiest.is_none_or(|(most, _)| sent > most) {
                    busiest = Some((sent, (a, b)));
                }
            }
            let (_, (a, b)) = busiest.expect("fat-tree has core trunks");
            fabric
                .schedule_link_failure(ms(20), a, b)
                .expect("trunk exists");
            fabric
                .schedule_link_recovery(ms(35), a, b)
                .expect("trunk exists");
        }
        fabric.run_until(ms(n));
        peak.sample(&fabric);
    }
    peak.assert_explained("fabric_mix shape");
    // The queue holds a slot and its index per event of its high-water
    // mark, one chunk of slack and the wheel: a slab grown by doubling,
    // or buckets keeping the flood's buffers, hold more.
    let high_water = fabric.world.queue_stats().pending_high_water as usize;
    assert!(
        high_water > 20_000,
        "the flood fills the queue: {high_water}"
    );
    let queue = peak.census.get("queue");
    let bound = high_water * (EVENT_SLOT + QUEUE_INDEX) + CHUNK + WHEEL;
    assert!(
        queue <= bound,
        "queue: {queue} B at the peak, bound {bound} B for {high_water} events:\n{}",
        peak.census
    );
}

/// Pins that moved, one line each: `(owner, units, pinned bytes)`
/// against the census.
fn moved_pins(census: &HeapCensus, pins: &[(&str, usize, usize)]) -> Vec<String> {
    let mut moved = Vec::new();
    for &(owner, units, pinned) in pins {
        let got = census.get(owner);
        if got != pinned {
            moved.push(format!(
                "{owner}: {got} B ({:.3} B for each of {units}), pinned {pinned} B ({:.3} each)",
                got as f64 / units as f64,
                pinned as f64 / units as f64
            ));
        }
    }
    moved
}

/// The census rows of a freshly built k = 16 hybrid fabric, per unit,
/// and the registry's row once it has started. A layout change that
/// moves one of these fails with the owner's name; update the pin
/// together with DESIGN's per-wire and per-host tables.
#[test]
fn census_pins_each_owner_per_host_switch_and_wire() {
    let topo = generators::fat_tree(K, HOSTS_PER_EDGE, None).topology;
    let (hosts, switches) = (topo.host_count(), topo.switch_count());
    let wires = topo.link_count() + hosts;
    let cfg = FabricConfig {
        seed: SEED,
        ..FabricConfig::default()
    };
    start();
    let mut fabric = Fabric::build_hybrid(topo, cfg).expect("fat-tree fabric builds");
    let build_allocs = allocs();
    let census = fabric.heap_census();
    // (owner, units, bytes): hosts and switches cost the same each; a
    // wire's bytes differ by the port tables of its two ends (a host's
    // holds its NIC's slot, a switch's one 4-byte slot per port).
    let mut moved = moved_pins(
        &census,
        &[
            ("hosts", hosts - 1, 1_023 * 1_152),
            ("switches", switches, 320 * 920),
            ("wiring", wires, 387_840),
            ("link counters", wires, 3_072 * 56),
            ("fault streams", wires, 0),
            ("flow bindings", wires, 3_072 * 88),
            ("flow plane", wires, 3_072 * 96),
        ],
    );
    const BUILD_ALLOCS: u64 = 4_393;
    if build_allocs != BUILD_ALLOCS {
        moved.push(format!(
            "build_hybrid: {build_allocs} allocations, pinned {BUILD_ALLOCS}"
        ));
    }
    // Started, every node has registered its one block: the registry
    // holds one map entry per node (the world's and the wires' blocks
    // sit in the engine) and no handle, so a node's metric registered
    // as a handle of its own moves this row.
    fabric.run_until(SimTime::ZERO + SimDuration::from_nanos(1));
    let nodes = hosts + switches;
    moved.extend(moved_pins(
        &fabric.heap_census(),
        &[("telemetry registry", nodes, 86_456)],
    ));
    assert!(
        moved.is_empty(),
        "heap census pins moved:\n{}\n{census}",
        moved.join("\n")
    );
}
