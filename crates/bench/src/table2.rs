//! Table 2: kernel-module function latency, measured on the *real* Rust
//! implementations at the paper's scale: "a fat-tree topology with 5,120
//! switches and 131,072 links. To measure PathTable lookup time, we
//! inserted 10K random entries into the Table. The path length we verify
//! is 16, longer than most DCN paths."
//!
//! A k=64 fat-tree is exactly 5·64²/4 = 5 120 switches with 64³/2 =
//! 131 072 switch-to-switch links.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use dumbnet_host::pathtable::{CachedPath, FlowKey, PathTable};
use dumbnet_topology::pathgraph::PathGraphRouter;
use dumbnet_topology::views::trace_tag_path;
use dumbnet_topology::{generators, pathgraph, PathGraph, PathGraphParams, Route, Topology};
use dumbnet_types::{HostId, MacAddr, Path, SwitchId, Tag};

use crate::report::{f, Report};

/// Paper-reported latencies in microseconds.
pub const PAPER_US: [(&str, f64); 3] = [
    ("PathTable lookup", 0.37),
    ("Path verify", 7.17),
    ("Find path", 1.50),
];

/// The prepared measurement fixtures.
pub struct Fixtures {
    /// The k=64 fat-tree (5 120 switches, 131 072 links).
    pub topo: Topology,
    /// PathTable preloaded with 10 000 random entries.
    pub table: PathTable,
    /// Destinations present in the table.
    pub dsts: Vec<MacAddr>,
    /// Source host for verification walks.
    pub src: HostId,
    /// A 16-tag path that verifies successfully.
    pub verify_path: Path,
    /// A built path graph for the find-path measurement.
    pub graph: PathGraph,
    /// The find-path core materialized over that graph.
    pub router: PathGraphRouter,
}

/// Builds the Table 2 fixtures. `quick` shrinks the fat-tree (k=16)
/// while keeping the data-structure sizes identical where they matter
/// (10 K PathTable entries, 16-tag verify path).
#[must_use]
pub fn fixtures(quick: bool) -> Fixtures {
    let k = if quick { 16 } else { 64 };
    let g = generators::fat_tree(k, 1, None);
    let topo = g.topology;
    let mut rng = StdRng::seed_from_u64(7);

    // 10 K random PathTable entries (synthetic MACs beyond the real
    // hosts, as the paper inserted random entries).
    let mut table = PathTable::new();
    let mut dsts = Vec::with_capacity(10_000);
    for i in 0..10_000u64 {
        let dst = MacAddr::for_host(1_000_000 + i);
        let a = SwitchId(rng.gen_range(0..topo.switch_count() as u64));
        let b = SwitchId(rng.gen_range(0..topo.switch_count() as u64));
        let c = SwitchId(rng.gen_range(0..topo.switch_count() as u64));
        let route = Route::new(vec![a, b, c])
            .unwrap_or_else(|_| Route::new(vec![a]).expect("single switch route"));
        let tags = Path::from_ports([
            rng.gen_range(1..=64u8),
            rng.gen_range(1..=64u8),
            rng.gen_range(1..=64u8),
        ])
        .expect("three tags");
        table.install(dst, vec![CachedPath { tags, route }], None);
        dsts.push(dst);
    }

    // A 16-tag verify path: zig-zag between the source's edge switch and
    // the pod fabric, ending at a neighbor host.
    let src = HostId(0);
    let src_info = *topo.host(src).expect("host 0");
    let edge = src_info.attached.switch;
    let mut tags: Vec<Tag> = Vec::new();
    let (up_port, agg, _) = topo.neighbors(edge).next().expect("edge has uplinks");
    let down_port = topo.port_towards(agg, edge).expect("reverse port");
    for _ in 0..7 {
        tags.push(Tag::from_port(up_port));
        tags.push(Tag::from_port(down_port));
    }
    tags.push(Tag::from_port(up_port));
    tags.push(Tag::from_port(down_port));
    // Replace the final bounce with delivery to a host on the edge.
    tags.pop();
    let (host_port, _h) = topo.hosts_on(edge).next().expect("edge has hosts");
    tags.push(Tag::from_port(host_port));
    let verify_path = Path::from_tags(tags).expect("16 tags");
    assert_eq!(verify_path.len(), 16);
    trace_tag_path(&topo, src, &verify_path).expect("fixture path must verify");

    // Path graph for find-path: a cross-pod pair.
    let dst_host = HostId(topo.host_count() as u64 - 1);
    let graph = pathgraph::build(&topo, src, dst_host, &PathGraphParams::default(), &mut rng)
        .expect("fat-tree is connected");

    let router = graph.router();
    Fixtures {
        topo,
        table,
        dsts,
        src,
        verify_path,
        graph,
        router,
    }
}

/// One PathTable lookup (the Table 2 hot path).
pub fn lookup_once(fx: &mut Fixtures, i: u64) {
    let dst = fx.dsts[(i as usize) % fx.dsts.len()];
    black_box(fx.table.lookup(dst, FlowKey(i), None));
}

/// One 16-tag path verification.
pub fn verify_once(fx: &Fixtures) {
    black_box(trace_tag_path(&fx.topo, fx.src, &fx.verify_path).expect("verifies"));
}

/// One find-path on the cached subgraph: one search of the core every
/// host-side route computation runs (each Yen spur of
/// `k_shortest_within` once), on an already materialized router.
pub fn find_path_once(fx: &mut Fixtures) {
    let down = std::collections::HashSet::new();
    black_box(fx.router.shortest(&down).expect("route exists"));
}

/// Wall-clock measurement behind `figures table2_kernel_module`.
#[must_use]
pub fn measure(quick: bool) -> Report {
    let mut fx = fixtures(quick);
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let time_us = |f: &mut dyn FnMut(u64)| -> f64 {
        // Warm up, then measure.
        for i in 0..iters / 10 {
            f(i);
        }
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        start.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    let lookup = time_us(&mut |i| lookup_once(&mut fx, i));
    let verify = time_us(&mut |_| verify_once(&fx));
    let find = time_us(&mut |_| find_path_once(&mut fx));

    let mut r = Report::new("Table 2 — kernel-module function latency");
    r.note(format!(
        "fat-tree k={}: {} switches, {} links; 10 000 PathTable entries;",
        if quick { 16 } else { 64 },
        fx.topo.switch_count(),
        fx.topo.link_count()
    ));
    r.note("16-tag verify path. Absolute numbers depend on machine and");
    r.note("implementation; the paper's claim — every kernel-module");
    r.note("operation completes in single-digit microseconds — is what must");
    r.note("hold.");
    r.header(["function", "measured (µs)", "paper (µs)"]);
    for ((name, paper), got) in PAPER_US.iter().zip([lookup, verify, find]) {
        r.row([(*name).to_owned(), f(got, 3), f(*paper, 2)]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_operations_work() {
        let mut fx = fixtures(true);
        assert_eq!(fx.topo.switch_count(), 5 * 16 * 16 / 4);
        assert_eq!(fx.table.destinations().len(), 10_000);
        lookup_once(&mut fx, 3);
        verify_once(&fx);
        find_path_once(&mut fx);
        assert_eq!(fx.verify_path.len(), 16);
    }

    #[test]
    fn full_scale_matches_paper_dimensions() {
        // Only dimension math here (building k=64 in a unit test is
        // slow): 5·k²/4 switches and k³/2 links at k=64.
        assert_eq!(5 * 64 * 64 / 4, 5_120);
        assert_eq!(64 * 64 * 64 / 2, 131_072);
    }
}
