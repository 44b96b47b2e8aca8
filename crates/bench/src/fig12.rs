//! Figure 12: path-graph size vs. ε, on a 10×10×10 cube, s = 2, primary
//! path lengths {2, 5, 10, 15}.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dumbnet_topology::{generators, pathgraph, spath, PathGraphParams, Topology};
use dumbnet_types::{HostId, SwitchId};

use crate::report::{f, Report};

/// Collects host pairs whose attachment switches sit exactly `len` hops
/// apart.
fn pairs_at_distance(
    topo: &Topology,
    len: u64,
    want: usize,
    rng: &mut StdRng,
) -> Vec<(HostId, HostId)> {
    let hosts: Vec<HostId> = topo.hosts().map(|h| h.id).collect();
    let mut sources = hosts.clone();
    sources.shuffle(rng);
    let mut out = Vec::new();
    for src in sources {
        let s_sw = topo.host(src).expect("host").attached.switch;
        let dist = spath::distances(topo, s_sw);
        let mut dsts: Vec<HostId> = hosts
            .iter()
            .copied()
            .filter(|&d| {
                d != src && dist.dist(topo.host(d).expect("host").attached.switch) == Some(len)
            })
            .collect();
        dsts.shuffle(rng);
        if let Some(&dst) = dsts.first() {
            out.push((src, dst));
            if out.len() >= want {
                break;
            }
        }
    }
    out
}

/// Runs the Figure 12 reproduction. Returns the report and its
/// checksum: every cell's exact switch total (the sum its mean is
/// printed from), folded in row-major order.
#[must_use]
pub fn run(quick: bool) -> (Report, u64) {
    let dims: &[usize] = if quick { &[6, 6, 6] } else { &[10, 10, 10] };
    let samples = if quick { 5 } else { 15 };
    let g = generators::cube(dims, 1, 16);
    let topo = &g.topology;
    let mut rng = StdRng::seed_from_u64(42);

    let mut r = Report::new("Figure 12 — path-graph size vs. ε (s = 2)");
    r.note(format!(
        "{}³-cube mesh, {} switches; mean cached-switch count over {} random pairs",
        dims[0],
        topo.switch_count(),
        samples
    ));
    r.note("per primary-path length. Paper: sizes grow with ε and length;");
    r.note("short paths stay cheap even at large ε.");
    let eps_values = [0u64, 1, 2, 3, 4, 5];
    let mut header = vec!["len".to_owned()];
    header.extend(eps_values.iter().map(|e| format!("ε={e}")));
    r.header(header);

    let lens: &[u64] = if quick { &[2, 5] } else { &[2, 5, 10, 15] };
    let mut checksum = 0u64;
    for &len in lens {
        let pairs = pairs_at_distance(topo, len, samples, &mut rng);
        if pairs.is_empty() {
            continue;
        }
        let mut row = vec![len.to_string()];
        for &eps in &eps_values {
            let params = PathGraphParams {
                k: 4,
                s: 2,
                epsilon: eps,
            };
            let mut total = 0usize;
            for &(src, dst) in &pairs {
                // Same seed per build so the primary is ε-independent.
                let mut prng = StdRng::seed_from_u64(len * 1000 + src.get());
                let pg = pathgraph::build(topo, src, dst, &params, &mut prng)
                    .expect("cube is connected");
                total += pg.switch_count();
            }
            checksum = checksum.wrapping_mul(31).wrapping_add(total as u64);
            row.push(f(total as f64 / pairs.len() as f64, 1));
        }
        r.row(row);
    }
    r.note(String::new());
    r.note("Storage estimate (§7.3): even caching path graphs to every other");
    let per_pair = {
        let params = PathGraphParams::default();
        let pairs = pairs_at_distance(topo, 5, 3, &mut rng);
        let mut bytes = 0usize;
        for &(src, dst) in &pairs {
            let mut prng = StdRng::seed_from_u64(7);
            let pg = pathgraph::build(topo, src, dst, &params, &mut prng).expect("connected");
            bytes += pg.switch_count() * 8 + pg.edge_count() * 12;
        }
        bytes / pairs.len().max(1)
    };
    r.note(format!(
        "host in a 100 000-host DCN ≈ {:.1} MB at ~{per_pair} B/path-graph",
        per_pair as f64 * 100_000.0 / 1e6
    ));
    let _ = SwitchId(0);
    (r, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows() {
        let s = run(true).0.render();
        assert!(s.contains("ε=0"));
        assert!(s.contains("len"));
    }
}
