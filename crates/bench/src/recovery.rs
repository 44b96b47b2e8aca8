//! One recovery curve for Figures 11(b), (c) and (e): the same 480 Mb/s
//! stream over the same capped trunks, sampled into the same goodput
//! bins and judged by one threshold scan.

use dumbnet_core::Fabric;
use dumbnet_host::agent::AppAction;
use dumbnet_host::{HostAgent, HostAgentConfig};
use dumbnet_sim::{Engine, LinkParams};
use dumbnet_topology::generators::{self, Generated};
use dumbnet_types::{Bandwidth, HostId, MacAddr, SimDuration, SimTime};

/// Goodput bin width.
pub const BIN: SimDuration = SimDuration::from_millis(10);

/// When the DumbNet-side runs break their link.
pub const T_FAIL: SimTime = SimTime(200_000_000);

/// How long every run is sampled for.
pub const HORIZON: SimDuration = SimDuration::from_millis(700);

/// The measured stream's receiver and flow id.
pub const SINK: (HostId, u64) = (HostId(26), 7);

/// The 0.5 Gb/s network cap, "as the paper does to saturate the link".
#[must_use]
pub fn trunk() -> LinkParams {
    LinkParams {
        latency: SimDuration::from_micros(1),
        bandwidth: Bandwidth::mbps(500),
        max_queue: SimDuration::from_millis(5),
        ecn_threshold: None,
    }
}

/// A `packets`-long stream of `bytes`-sized packets, one per `gap_us`,
/// to host `dst` on the measured flow id, starting at 20 ms.
#[must_use]
pub fn stream(dst: u64, packets: u64, bytes: usize, gap_us: u64) -> AppAction {
    AppAction::DataStream {
        at: SimDuration::from_millis(20),
        dst: MacAddr::for_host(dst),
        flow: SINK.1,
        packets,
        bytes,
        interval: SimDuration::from_micros(gap_us),
    }
}

/// Host builder giving host 1 the measured stream: 30 000 packets of
/// 1 200 B every 20 µs, ≈ 480 Mb/s, to the sink.
#[must_use]
pub fn stream_host(id: HostId, mut hc: HostAgentConfig) -> HostAgent {
    if id == HostId(1) {
        hc.actions = vec![stream(SINK.0.get(), 30_000, 1_200, 20)];
    }
    HostAgent::new(id, hc)
}

/// Receiver goodput in [`BIN`]-wide bins around a fault at `t_fail`.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Mb/s per bin, from time zero.
    pub mbps: Vec<f64>,
    /// When the fault hit.
    pub t_fail: SimTime,
}

impl Curve {
    /// A curve from the bytes received in each bin.
    #[must_use]
    pub fn from_bytes(bytes: impl IntoIterator<Item = u64>, t_fail: SimTime) -> Curve {
        let mbps = |b: u64| b as f64 * 8.0 / BIN.as_secs_f64() / 1e6;
        Curve {
            mbps: bytes.into_iter().map(mbps).collect(),
            t_fail,
        }
    }

    /// The bin the fault falls in.
    #[must_use]
    pub fn fail_bin(&self) -> usize {
        (self.t_fail.nanos() / BIN.nanos()) as usize
    }

    /// Mean goodput over the (up to) five bins before the fault.
    #[must_use]
    pub fn baseline(&self) -> f64 {
        let pre = &self.mbps[..self.fail_bin().min(self.mbps.len())];
        let last = pre.iter().rev().take(5);
        last.clone().sum::<f64>() / last.count().max(1) as f64
    }

    /// Fault → the first of `run` consecutive bins at or above `frac` of
    /// the baseline, or `None` if goodput never came back.
    #[must_use]
    pub fn recovered_after(&self, frac: f64, run: usize) -> Option<SimDuration> {
        let (bar, first) = (frac * self.baseline(), self.fail_bin() + 1);
        let back = |w: &[f64]| w.iter().all(|&b| b >= bar);
        let ix = first + self.mbps.windows(run).skip(first).position(back)?;
        let t = (ix as u64) * BIN.nanos();
        Some(SimDuration::from_nanos(
            t.saturating_sub(self.t_fail.nanos()),
        ))
    }

    /// Whether the bin after the fault lost over half the goodput of the
    /// bin before it — the fault really hit the measured flow.
    #[must_use]
    pub fn dipped(&self) -> bool {
        let at = self.fail_bin();
        let after = self.mbps.get(at + 1);
        after.is_some_and(|&b| b < 0.5 * self.mbps[at - 1].max(1.0))
    }
}

/// Runs `fabric` to `horizon` one [`BIN`] at a time, reading the bytes
/// of `flow` delivered to `dst` off its counters after each step.
pub fn sample<W: Engine>(
    fabric: &mut Fabric<W>,
    (dst, flow): (HostId, u64),
    t_fail: SimTime,
    horizon: SimDuration,
) -> Curve {
    let (mut t, mut last, mut bytes) = (SimTime::ZERO, 0u64, Vec::new());
    while t < SimTime::ZERO + horizon {
        t = t + BIN;
        fabric.run_until(t);
        let delivered = fabric
            .host(dst)
            .and_then(|a| a.stats().delivered.get(&flow).copied());
        let total = delivered.map_or(0, |(_, b)| b);
        bytes.push(total - last);
        last = total;
    }
    Curve::from_bytes(bytes, t_fail)
}

/// The DumbNet side of Figures 11(b)/(c): the measured stream through a
/// spine–leaf cut at [`T_FAIL`] on the testbed `build` makes a fabric
/// of. The flow hashes onto one of the two spines: spine 0's link is
/// cut first, and if the curve shows no dip the run is repeated against
/// spine 1.
pub fn spine_cut<W: Engine>(build: impl Fn(Generated) -> Fabric<W>) -> (Fabric<W>, Curve) {
    for spine_ix in 0..2 {
        let g = generators::testbed();
        let (leaf, spine) = (g.group("leaf")[0], g.group("spine")[spine_ix]);
        let mut fabric = build(g);
        fabric
            .schedule_link_failure(T_FAIL, leaf, spine)
            .expect("link exists");
        let curve = sample(&mut fabric, SINK, T_FAIL, HORIZON);
        if curve.dipped() || spine_ix == 1 {
            return (fabric, curve);
        }
    }
    unreachable!("one of the two spines carries the flow");
}
