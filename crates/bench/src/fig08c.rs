//! Figure 8(c) — repro extension: batched, pipelined control plane.
//!
//! The paper's control plane is strictly per-entry: discovery sends one
//! probe per 33 µs controller tick and every topology event is flooded
//! in its own patch frame. DESIGN.md §9 batches both paths behind two
//! knobs, and this figure sweeps them:
//!
//! * **probe window** — probes in flight per pump tick. Window 1 is the
//!   paper's lockstep; larger windows pipeline the O(N·P²) scan and cut
//!   discovery convergence near-linearly until propagation dominates.
//! * **patch batch size** (`patch_batch_max`) — entries per stage-2
//!   segment frame. A burst of link events coalesces into one epoch;
//!   smaller caps force more segment frames for the same epoch.
//!
//! Both sweeps are deterministic, so the combined checksum (probe and
//! frame counts) is pinned in CI next to the fig08a checksum.

use std::time::Instant;

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_topology::generators;
use dumbnet_types::{HostId, SimDuration, SimTime};

use crate::fig08;
use crate::report::{f, json_document, json_object, Json, Report};

/// One probe-window sweep row.
#[derive(Debug, Clone)]
pub struct WindowPoint {
    /// Probes in flight per pump tick.
    pub window: usize,
    /// Probes the controller transmitted.
    pub probes: u64,
    /// Virtual time from first probe to quiescence.
    pub time: SimDuration,
    /// Real time the run took.
    pub wall_secs: f64,
    /// Whether the discovered map matched ground truth exactly.
    pub exact: bool,
}

/// One patch-batch sweep row.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// `patch_batch_max`: entries per segment frame.
    pub batch_max: usize,
    /// Coalesced flood rounds the controller ran.
    pub floods: u64,
    /// Patch frames on the wire (per recipient, per segment).
    pub frames: u64,
    /// Virtual time from the first link event until the LAST host
    /// reached the final epoch.
    pub converge: SimDuration,
}

/// The full figure: both sweeps.
#[derive(Debug, Clone)]
pub struct Fig08c {
    /// Fat-tree arity used by the window sweep.
    pub k: usize,
    /// Probe-window sweep rows.
    pub windows: Vec<WindowPoint>,
    /// Patch-batch sweep rows.
    pub batches: Vec<BatchPoint>,
}

/// Link events injected by the batch sweep: every testbed leaf's uplink
/// to spine 0 (each leaf keeps spine 1, so the fabric stays connected).
const BURST_EVENTS: usize = 5;

fn window_sweep(quick: bool) -> (usize, Vec<WindowPoint>) {
    let (k, max_ports, windows): (usize, u8, &[usize]) = if quick {
        (8, 16, &[1, 4, 16])
    } else {
        (20, 64, &[1, 2, 4, 8, 16, 32])
    };
    let points = windows
        .iter()
        .map(|&w| {
            let g = generators::fat_tree(k, 1, Some(max_ports.max(k as u8)));
            let start = Instant::now();
            let pt = fig08::discover_windowed(g.topology, HostId(0), max_ports, "sweep", w);
            WindowPoint {
                window: w,
                probes: pt.probes,
                time: pt.time,
                wall_secs: start.elapsed().as_secs_f64(),
                exact: pt.exact,
            }
        })
        .collect();
    (k, points)
}

/// A burst of `BURST_EVENTS` uplink failures 500 µs apart on the
/// testbed, all inside one 10 ms flush window: one coalesced epoch,
/// whose segment count (and wire cost) is set by `batch_max`.
fn batch_burst(batch_max: usize) -> BatchPoint {
    let g = generators::testbed();
    let spines = g.group("spine").to_vec();
    let leaves = g.group("leaf").to_vec();
    let host_ids: Vec<HostId> = g.topology.hosts().map(|h| h.id).collect();
    let mut cfg = FabricConfig::default();
    cfg.controller.patch_delay = SimDuration::from_millis(10);
    cfg.controller.patch_batch_max = batch_max;
    let mut fabric = Fabric::build(g.topology, cfg).expect("fabric builds");
    let burst_at = SimTime::ZERO + SimDuration::from_millis(100);
    assert!(BURST_EVENTS <= leaves.len(), "one failure per leaf at most");
    for (i, &leaf) in leaves.iter().take(BURST_EVENTS).enumerate() {
        fabric
            .schedule_link_failure(
                burst_at + SimDuration::from_micros(500 * i as u64),
                leaf,
                spines[0],
            )
            .expect("link exists");
    }
    fabric.run_until(burst_at + SimDuration::from_millis(400));
    let ctrl = fabric.controller(HostId(0)).expect("controller");
    let stats = ctrl.stats();
    let epoch = ctrl.topo_version();
    let mut last = SimTime::ZERO;
    for &h in &host_ids {
        if h == HostId(0) {
            continue; // The controller host has no agent.
        }
        let agent = fabric.host(h).expect("host agent");
        let at = agent
            .stats()
            .patch_arrivals
            .iter()
            .filter(|&&(v, _)| v == epoch)
            .map(|&(_, at)| at)
            .min()
            .unwrap_or_else(|| panic!("host {h:?} never reached epoch {epoch}"));
        last = last.max(at);
    }
    BatchPoint {
        batch_max,
        floods: stats.patch_floods,
        frames: stats.patches_sent,
        converge: last - burst_at,
    }
}

fn batch_sweep(quick: bool) -> Vec<BatchPoint> {
    let caps: &[usize] = if quick { &[1, 32] } else { &[1, 2, 4, 32] };
    caps.iter().map(|&c| batch_burst(c)).collect()
}

/// Runs both sweeps.
#[must_use]
pub fn sweep(quick: bool) -> Fig08c {
    let (k, windows) = window_sweep(quick);
    Fig08c {
        k,
        windows,
        batches: batch_sweep(quick),
    }
}

impl Fig08c {
    /// Deterministic work fingerprint: total probes across the window
    /// sweep plus total patch frames and floods across the batch sweep.
    /// Same seed, same code ⇒ same checksum (the CI gate).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.windows.iter().map(|w| w.probes).sum::<u64>()
            + self
                .batches
                .iter()
                .map(|b| b.frames + b.floods)
                .sum::<u64>()
    }

    /// The JSON document: a pure function of the simulated results (host
    /// wall-clock stays in the human report).
    #[must_use]
    pub fn to_json(&self) -> String {
        let windows = self.windows.iter().map(|w| {
            json_object(&[
                ("window", Json::Int(w.window as u64)),
                ("probes", Json::Int(w.probes)),
                ("virtual_secs", Json::Float(w.time.as_secs_f64(), 3)),
                ("exact", Json::Bool(w.exact)),
            ])
        });
        let batches = self.batches.iter().map(|b| {
            json_object(&[
                ("batch_max", Json::Int(b.batch_max as u64)),
                ("floods", Json::Int(b.floods)),
                ("frames", Json::Int(b.frames)),
                ("converge_ms", Json::Float(b.converge.as_millis_f64(), 3)),
            ])
        });
        json_document(
            &[
                ("figure", Json::Str("fig08c_batch_convergence")),
                ("fat_tree_k", Json::Int(self.k as u64)),
                ("checksum", Json::Int(self.checksum())),
            ],
            &[
                ("window_sweep", windows.collect()),
                ("batch_sweep", batches.collect()),
            ],
        )
    }

    /// Formats the human-readable report.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new("Figure 8(c) — batched, pipelined control plane");
        r.note(format!(
            "window sweep: fat-tree k={}, 33 µs/probe tick; batch sweep: \
             testbed, {BURST_EVENTS}-failure burst, 10 ms flush window",
            self.k
        ));
        r.header(["sweep", "knob", "probes/frames", "time", "wall (s)", "map"]);
        for w in &self.windows {
            r.row([
                "window".to_owned(),
                w.window.to_string(),
                w.probes.to_string(),
                format!("{:.2} s virt", w.time.as_secs_f64()),
                f(w.wall_secs, 2),
                if w.exact { "exact" } else { "MISMATCH" }.to_owned(),
            ]);
        }
        r.rule();
        for b in &self.batches {
            r.row([
                "batch".to_owned(),
                b.batch_max.to_string(),
                b.frames.to_string(),
                format!("{:.2} ms conv", b.converge.as_millis_f64()),
                "-".to_owned(),
                format!("{} flood", b.floods),
            ]);
        }
        r.note(String::new());
        r.note("Window 1 is the paper's lockstep; the knee where virtual time");
        r.note("stops improving marks propagation overtaking the probe tick.");
        r.note("All batch rows converge in one flood: batching trades frames,");
        r.note("not latency.");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_burst_coalesces_into_one_epoch() {
        let unbatched = batch_burst(1);
        let batched = batch_burst(32);
        assert_eq!(unbatched.floods, 1);
        assert_eq!(batched.floods, 1);
        // Same epoch, fewer frames: BURST_EVENTS segments vs one.
        assert_eq!(unbatched.frames, batched.frames * BURST_EVENTS as u64);
        // Both converge in the same flush round; the segmented run pays
        // only the serialization of its extra frames (microseconds).
        assert!(batched.converge <= unbatched.converge);
        assert!(
            unbatched.converge - batched.converge < SimDuration::from_micros(50),
            "segmenting cost more than wire time: {} vs {}",
            unbatched.converge,
            batched.converge
        );
    }

    #[test]
    fn quick_window_sweep_is_exact_and_monotone() {
        let (_, points) = window_sweep(true);
        assert!(points.iter().all(|w| w.exact));
        // Virtual discovery time strictly improves with the window.
        for pair in points.windows(2) {
            assert!(
                pair[1].time < pair[0].time,
                "window {} not faster than {}",
                pair[1].window,
                pair[0].window
            );
        }
    }

    /// The document carries simulated results only, so two runs agree
    /// byte for byte (host wall-clock is in the report, not here).
    #[test]
    fn json_document_is_equal_across_runs() {
        let doc = sweep(true).to_json();
        assert_eq!(doc, sweep(true).to_json());
        assert!(!doc.contains("wall"), "{doc}");
    }
}
