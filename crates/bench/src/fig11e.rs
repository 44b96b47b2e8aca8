//! Figure 11(e) (extension): gray-failure recovery — binary-timeout
//! baseline vs. bounce-probe gray detection.
//!
//! Figure 11(b)/(c) recover from *clean* link failures: the switch sees
//! the port drop and floods a notification. A gray failure never trips
//! that wire: the trunk stays link-up while silently dropping some
//! fraction of the packets crossing it. This experiment injects such a
//! fault under a saturating stream and compares two host-side
//! detectors on identical fabrics:
//!
//! * **binary** — a coarse keepalive timeout: slow probe cadence and a
//!   near-1.0 loss threshold, so only a total blackhole is ever
//!   declared dead (the classic dead-peer detector).
//! * **gray** — the DESIGN.md §10 detector: fast bounce probes, a
//!   per-edge vote over their loss, and a sensitive threshold that
//!   catches partial loss, triggering an immediate local failover
//!   around the edge before any controller round-trip.
//!
//! Recovery is measured from the receiver's goodput bins: the time from
//! fault injection to the first of two consecutive bins back at ≥95 %
//! of the pre-fault rate. The 95 % bar (vs. the 80 % used for hard
//! failures) matters because a partially lossy path still delivers
//! most of the stream — the point of gray detection is closing that
//! last degraded fraction.
//!
//! Output is JSON with a deterministic work checksum pinned in CI.

use dumbnet_core::{Fabric, FabricConfig};
use dumbnet_host::pathtable::FlowKey;
use dumbnet_host::GrayDetectConfig;
use dumbnet_sim::Engine;
use dumbnet_topology::generators;
use dumbnet_types::{HostId, MacAddr, SimDuration, SimTime};

use crate::recovery;
use crate::report::{json_document, json_object, Json};

/// The sensitive detector: a threshold low enough to catch ≥10 %
/// injected loss (a bounce probe crosses the trunk twice, so 10 % wire
/// loss is 0.19 probe loss).
fn gray_detector() -> GrayDetectConfig {
    GrayDetectConfig {
        suspect_threshold: 0.08,
        ..GrayDetectConfig::default()
    }
}

/// The binary-timeout baseline: 4× slower probes, eight-sample warmup,
/// and a 0.95 threshold only a full blackhole can reach.
fn binary_detector() -> GrayDetectConfig {
    GrayDetectConfig {
        probe_interval: SimDuration::from_millis(20),
        suspect_threshold: 0.95,
        min_samples: 8,
    }
}

/// One measured run of the gray-recovery experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayRecoveryPoint {
    /// Injected per-packet drop probability on the gray trunk.
    pub loss: f64,
    /// `"binary"` or `"gray"`.
    pub detector: &'static str,
    /// Fault → first of two consecutive bins at ≥95 % of the pre-fault
    /// goodput; `None` if the stream never got back inside the window.
    /// Stricter than the 80 % / one bin of hard failures: a 10 %-lossy
    /// path still clears 80 %, and a single lucky bin under random loss
    /// must not count as recovered.
    pub recovery: Option<SimDuration>,
    /// Mean goodput over the last five pre-fault bins, Mbps.
    pub baseline_mbps: f64,
    /// Mean goodput over the three bins right after the fault, Mbps.
    pub degraded_mbps: f64,
    /// Total stream bytes delivered to both receivers.
    pub delivered_bytes: u64,
    /// Path probes sent by the two monitored senders.
    pub probes: u64,
    /// `LinkSuspect` reports sent by the two monitored senders.
    pub suspects: u64,
    /// Local gray failovers performed by the two monitored senders.
    pub failovers: u64,
    /// Edges the controller quarantined.
    pub quarantines: u64,
}

/// Runs one point: a 480 Mbps stream plus a light corroborating stream
/// from a second sender, gray loss `p` injected at 200 ms on the trunk
/// the main stream's bound path crosses. Deterministic per `(p, gray)`.
#[must_use]
pub fn gray_recovery_point(p: f64, gray: bool) -> GrayRecoveryPoint {
    let g = generators::testbed();
    let leaf = g.group("leaf")[0];
    let spines = g.group("spine").to_vec();
    let mut cfg = FabricConfig {
        trunk: recovery::trunk(),
        ..FabricConfig::default()
    };
    cfg.host.gray_detect = Some(if gray {
        gray_detector()
    } else {
        binary_detector()
    });
    cfg.controller.gray = true;
    // Host 1 is the measured 480 Mbps stream; host 2 runs a light
    // side stream to a different far leaf so the controller can
    // corroborate suspicion across reporters (quorum 2).
    let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hc| {
        if id == HostId(2) {
            hc.actions = vec![recovery::stream(16, 2_000, 200, 250)];
        }
        recovery::stream_host(id, hc)
    })
    .expect("fabric builds");

    // Warm up until the stream's path is cached and its flow bound,
    // then poison the trunk that bound path actually crosses, so the
    // fault is guaranteed to hit the measured stream.
    fabric.run_until(SimTime::ZERO + SimDuration::from_millis(100));
    let (sink, flow) = recovery::SINK;
    let spine = {
        let a = fabric.host(HostId(1)).expect("host 1");
        let bound = a
            .pathtable
            .bound_path(MacAddr::for_host(sink.get()), FlowKey(flow));
        let bound = bound.expect("stream bound to a cached path after warmup");
        *spines
            .iter()
            .find(|&&s| bound.uses_edge(leaf, s))
            .expect("bound path crosses a spine trunk")
    };
    let wire = fabric.trunk_wire(leaf, spine).expect("trunk exists");
    let t_fail = recovery::T_FAIL;
    fabric.world.schedule_loss(t_fail, wire, p);

    let curve = recovery::sample(&mut fabric, recovery::SINK, t_fail, recovery::HORIZON);
    let post = curve.mbps[curve.fail_bin() + 1..].iter().take(3);
    let degraded_mbps = post.clone().sum::<f64>() / post.count().max(1) as f64;
    let delivered_bytes: u64 = [26u64, 16]
        .iter()
        .filter_map(|&h| fabric.host(HostId(h)))
        .filter_map(|a| a.stats().delivered.get(&7).copied())
        .map(|(_, b)| b)
        .sum();
    let (mut probes, mut suspects, mut failovers) = (0u64, 0u64, 0u64);
    for h in [1u64, 2] {
        if let Some(a) = fabric.host(HostId(h)) {
            let s = a.stats();
            probes += s.probes_sent;
            suspects += s.link_suspects_sent;
            failovers += s.gray_failovers;
        }
    }
    let quarantines = fabric
        .controller(HostId(0))
        .map_or(0, |c| c.stats().quarantines);
    GrayRecoveryPoint {
        loss: p,
        detector: if gray { "gray" } else { "binary" },
        recovery: curve.recovered_after(0.95, 2),
        baseline_mbps: curve.baseline(),
        degraded_mbps,
        delivered_bytes,
        probes,
        suspects,
        failovers,
        quarantines,
    }
}

/// The full sweep: every loss rate under both detectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11e {
    /// All measured points, binary/gray interleaved per rate.
    pub points: Vec<GrayRecoveryPoint>,
}

/// Runs the sweep. Quick mode keeps the endpoints (the CI gate).
#[must_use]
pub fn sweep(quick: bool) -> Fig11e {
    let rates: &[f64] = if quick {
        &[0.1, 1.0]
    } else {
        &[0.1, 0.3, 0.5, 1.0]
    };
    let mut points = Vec::new();
    for &p in rates {
        points.push(gray_recovery_point(p, false));
        points.push(gray_recovery_point(p, true));
    }
    Fig11e { points }
}

const TITLE: &str = "gray-failure recovery: binary timeout vs bounce-probe gray detection";
const SETUP: &str = "testbed, 480 Mbps stream, gray loss on the stream's trunk at 200 ms, \
                     recovery = 2 bins back at 95% of pre-fault goodput";

impl Fig11e {
    /// Deterministic work fingerprint: delivered bytes, probe/report/
    /// failover/quarantine counts and the recovery bin of every point.
    /// Same seed, same code ⇒ same checksum (the CI gate).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.points
            .iter()
            .map(|pt| {
                let recovered_ms = pt.recovery.map_or(0, |d| d.nanos() / 1_000_000 + 1);
                pt.delivered_bytes
                    .wrapping_add(pt.probes.wrapping_mul(3))
                    .wrapping_add(pt.suspects.wrapping_mul(7))
                    .wrapping_add(pt.failovers.wrapping_mul(31))
                    .wrapping_add(pt.quarantines.wrapping_mul(127))
                    .wrapping_add(recovered_ms)
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// The JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let series = self.points.iter().map(|pt| {
            json_object(&[
                ("loss", Json::Float(pt.loss, 3)),
                ("detector", Json::Str(pt.detector)),
                ("recovery_ms", Json::millis(pt.recovery)),
                ("recovered", Json::Bool(pt.recovery.is_some())),
                ("baseline_mbps", Json::Float(pt.baseline_mbps, 1)),
                ("degraded_mbps", Json::Float(pt.degraded_mbps, 1)),
                ("delivered_bytes", Json::Int(pt.delivered_bytes)),
                ("probes", Json::Int(pt.probes)),
                ("suspects", Json::Int(pt.suspects)),
                ("failovers", Json::Int(pt.failovers)),
                ("quarantines", Json::Int(pt.quarantines)),
            ])
        });
        json_document(
            &[
                ("figure", Json::Str("11e")),
                ("title", Json::Str(TITLE)),
                ("setup", Json::Str(SETUP)),
                ("checksum", Json::Int(self.checksum())),
            ],
            &[("series", series.collect())],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance bar: at 10 % injected loss the gray
    /// detector must recover strictly faster than the binary-timeout
    /// baseline (which cannot see partial loss at all — its EWMA
    /// converges near 0.1, far under the 0.95 bar).
    #[test]
    fn gray_strictly_faster_at_ten_percent_loss() {
        let binary = gray_recovery_point(0.1, false);
        let gray = gray_recovery_point(0.1, true);
        let g = gray.recovery.expect("gray detection recovers at 10% loss");
        match binary.recovery {
            None => {}
            Some(b) => assert!(g < b, "gray {g} not faster than binary {b}"),
        }
        assert!(gray.failovers > 0, "no local failover performed");
        // Degradation is judged on the binary baseline: it cannot fail
        // over at partial loss, so its post-fault window shows the raw
        // damage. (The gray run recovers within the window — that is
        // the point of the figure.)
        assert!(
            binary.degraded_mbps < 0.95 * binary.baseline_mbps,
            "fault did not degrade the stream (degraded {} vs base {})",
            binary.degraded_mbps,
            binary.baseline_mbps
        );
    }

    /// At total (blackhole) loss the binary detector does eventually
    /// fire, but only after its long warmup — gray detection still wins
    /// by a wide margin. Run the gray point twice for the same-seed
    /// determinism regression.
    #[test]
    fn gray_beats_binary_at_full_loss_and_is_deterministic() {
        let binary = gray_recovery_point(1.0, false);
        let gray = gray_recovery_point(1.0, true);
        let g = gray.recovery.expect("gray detection recovers a blackhole");
        if let Some(b) = binary.recovery {
            assert!(g < b, "gray {g} not faster than binary {b}");
        }
        let again = gray_recovery_point(1.0, true);
        assert_eq!(gray, again, "same-seed runs diverged");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let fig = Fig11e {
            points: vec![GrayRecoveryPoint {
                loss: 0.1,
                detector: "gray",
                recovery: Some(SimDuration::from_millis(30)),
                baseline_mbps: 480.0,
                degraded_mbps: 432.0,
                delivered_bytes: 1_000,
                probes: 10,
                suspects: 2,
                failovers: 1,
                quarantines: 1,
            }],
        };
        let doc = fig.to_json();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"figure\": \"11e\""));
        assert!(doc.contains("\"recovery_ms\": 30.000"));
        assert!(doc.contains(&format!("\"checksum\": {}", fig.checksum())));
    }
}
