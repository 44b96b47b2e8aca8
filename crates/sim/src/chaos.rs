//! Chaos scenario harness: drive a [`World`](crate::World) under a [`ChaosPlan`]
//! until a caller-supplied convergence predicate holds.
//!
//! The runner is protocol-agnostic — it knows nothing about DumbNet.
//! It applies the plan, advances virtual time in fixed slices, polls
//! the predicate between slices, and reports when (or whether) the
//! system converged, together with the engine's global and per-wire
//! fault accounting. DumbNet-specific invariant checking (stale path
//! tables, discovery termination, all-pairs reachability) is layered on
//! top of this in `dumbnet-core`.

use dumbnet_types::{SimDuration, SimTime};

use crate::engine::Engine;
use crate::engine::{LinkStats, WireId, WorldStats};
use crate::faults::ChaosPlan;

/// Outcome of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// First slice boundary at which the predicate held, if any.
    pub converged_at: Option<SimTime>,
    /// Virtual time when the run stopped (convergence or deadline).
    pub finished_at: SimTime,
    /// When the last *scheduled* disruption (flap, crash, burst) ended;
    /// `None` for purely probabilistic plans. Recovery time is usually
    /// measured from here (or from a specific fault) to `converged_at`.
    pub faults_ended_at: Option<SimTime>,
    /// Global engine counters at the end of the run.
    pub stats: WorldStats,
    /// Per-wire counters at the end of the run.
    pub links: Vec<(WireId, LinkStats)>,
}

impl ChaosReport {
    /// Whether the predicate ever held.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

/// Drives one chaos scenario to convergence or deadline.
#[derive(Debug, Clone)]
pub struct ChaosRunner {
    /// The disruptions to apply.
    pub plan: ChaosPlan,
    /// Hard stop: the run never advances past this time.
    pub deadline: SimTime,
    /// How often the convergence predicate is polled.
    pub check_every: SimDuration,
}

impl ChaosRunner {
    /// A runner polling convergence every millisecond of virtual time.
    #[must_use]
    pub fn new(plan: ChaosPlan, deadline: SimTime) -> ChaosRunner {
        ChaosRunner {
            plan,
            deadline,
            check_every: SimDuration::from_millis(1),
        }
    }

    /// Overrides the polling interval.
    #[must_use]
    pub fn check_every(mut self, every: SimDuration) -> ChaosRunner {
        self.check_every = every;
        self
    }

    /// Applies the plan and runs `world` in `check_every` slices until
    /// `converged` returns `true` or the deadline passes. The predicate
    /// sees the world quiesced at a slice boundary (no handler is
    /// mid-flight). Generic over [`Engine`], so the same scenario runs
    /// on a single-threaded world or a sharded one.
    pub fn run<E, F>(&self, world: &mut E, mut converged: F) -> ChaosReport
    where
        E: Engine,
        F: FnMut(&E) -> bool,
    {
        self.plan.apply(world);
        let mut converged_at = None;
        loop {
            let next = world.now().after(self.check_every);
            let slice_end = if next > self.deadline {
                self.deadline
            } else {
                next
            };
            world.run_until(slice_end);
            if converged(world) {
                converged_at = Some(world.now());
                break;
            }
            if world.now() >= self.deadline {
                break;
            }
        }
        let links = (0..world.wire_count())
            .map(|ix| {
                let w = WireId::from_raw(ix);
                (w, world.link_stats(w))
            })
            .collect();
        ChaosReport {
            converged_at,
            finished_at: world.now(),
            faults_ended_at: self.plan.last_scheduled_event(),
            stats: world.stats(),
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    use dumbnet_packet::{Packet, Payload};
    use dumbnet_types::{Bandwidth, MacAddr, Path, PortNo};

    use crate::engine::{Ctx, LinkParams, Node, NodeAddr, World};
    use crate::faults::{CrashSchedule, FaultProfile};

    const P1: PortNo = match PortNo::new(1) {
        Some(p) => p,
        None => unreachable!(),
    };

    /// Sends `total` packets, one per 100 µs; counts what it receives.
    struct Chatter {
        total: u64,
        sent: u64,
        received: u64,
        restarts: u32,
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortNo, _pkt: Packet) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.total {
                self.sent += 1;
                let pkt = Packet::data(
                    MacAddr::for_host(0),
                    MacAddr::for_host(1),
                    Path::empty(),
                    0,
                    self.sent,
                    100,
                );
                ctx.send(P1, pkt);
                ctx.set_timer(SimDuration::from_micros(100), 0);
            }
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
            self.restarts += 1;
            // Resume the send loop: the pre-crash timer is dead.
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pair(total: u64) -> (World, NodeAddr, NodeAddr, WireId) {
        let mut w = World::new(7);
        let a = w.add_node(Box::new(Chatter {
            total,
            sent: 0,
            received: 0,
            restarts: 0,
        }));
        let b = w.add_node(Box::new(Chatter {
            total: 0,
            sent: 0,
            received: 0,
            restarts: 0,
        }));
        let params = LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::gbps(1),
            max_queue: SimDuration::from_millis(10),
            ecn_threshold: None,
        };
        let wid = w.wire(a, P1, b, P1, params).unwrap();
        (w, a, b, wid)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO.after(SimDuration::from_millis(ms))
    }

    #[test]
    fn runner_converges_when_predicate_holds() {
        let (mut w, _a, b, wid) = pair(50);
        let plan = ChaosPlan::seeded(3).with_link_fault(wid, FaultProfile::lossy(0.2));
        let report = ChaosRunner::new(plan, t(100)).run(&mut w, |world| {
            world.node::<Chatter>(b).is_some_and(|c| c.received >= 20)
        });
        assert!(report.converged(), "20+ of 50 packets at 20% loss");
        assert!(report.converged_at.unwrap() <= t(100));
        assert!(report.stats.drops_loss > 0);
        // The run stops at the convergence boundary; packets may still
        // be in flight, so accepted ≥ delivered + dropped.
        let (_, ls) = report.links[0];
        assert!(ls.sent >= ls.delivered + ls.drops_loss);
        assert_eq!(report.stats.drops_loss, ls.drops_loss);
    }

    #[test]
    fn runner_hits_deadline_when_predicate_never_holds() {
        let (mut w, _a, _b, wid) = pair(10);
        let plan = ChaosPlan::seeded(3).with_link_fault(wid, FaultProfile::lossy(1.0));
        let report = ChaosRunner::new(plan, t(5)).run(&mut w, |_| false);
        assert!(!report.converged());
        assert_eq!(report.finished_at, t(5));
        // Total loss: everything sent was dropped.
        let (_, ls) = report.links[0];
        assert_eq!(ls.delivered, 0);
        assert_eq!(ls.sent, ls.drops_loss);
    }

    #[test]
    fn crash_and_restart_reported_and_survivable() {
        let (mut w, a, b, _wid) = pair(200);
        // Receiver crashes at 2 ms, back at 5 ms.
        let plan = ChaosPlan::seeded(0).with_crash(CrashSchedule {
            node: b,
            at: t(2),
            restart_after: Some(SimDuration::from_millis(3)),
        });
        assert_eq!(plan.last_scheduled_event(), Some(t(5)));
        let report = ChaosRunner::new(plan, t(60)).run(&mut w, |world| {
            world.node::<Chatter>(a).is_some_and(|c| c.sent == 200)
        });
        assert!(report.converged());
        assert_eq!(report.faults_ended_at, Some(t(5)));
        let recv = w.node::<Chatter>(b).unwrap();
        assert_eq!(recv.restarts, 1);
        assert!(recv.received > 0);
        // In-flight and wire-refused drops both show up somewhere.
        assert!(
            report.stats.drops_crashed + report.stats.drops_down > 0,
            "crash window dropped nothing"
        );
        let sender = w.node::<Chatter>(a).unwrap();
        assert_eq!(sender.sent, 200);
        assert!(recv.received < 200, "crash window lost packets");
    }

    #[test]
    fn injected_loss_rate_tracks_probability() {
        let (mut w, _a, _b, wid) = pair(10_000);
        let plan = ChaosPlan::seeded(5).with_link_fault(wid, FaultProfile::lossy(0.05));
        let report = ChaosRunner::new(plan, t(2_000)).run(&mut w, |_| false);
        // 10 000 sends at 5 %: the drop count must track the configured
        // probability, not just be nonzero (a regression here once hid
        // behind weaker "> 0" assertions).
        assert!(
            (300..700).contains(&report.stats.drops_loss),
            "5% of 10k sends should drop ~500, got {}",
            report.stats.drops_loss
        );
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let (mut w, _a, b, wid) = pair(100);
            let plan = ChaosPlan::seeded(99).with_link_fault(
                wid,
                FaultProfile {
                    loss: 0.1,
                    corrupt: 0.05,
                    jitter: SimDuration::from_micros(50),
                    ..FaultProfile::default()
                },
            );
            let report = ChaosRunner::new(plan, t(50)).run(&mut w, |_| false);
            let received = w.node::<Chatter>(b).unwrap().received;
            (report.stats, report.links, received)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn payload_unused_types_keep_compiling() {
        // Silences dead-code pattern churn if Payload gains variants.
        let p = Packet::data(
            MacAddr::for_host(0),
            MacAddr::for_host(1),
            Path::empty(),
            0,
            0,
            10,
        );
        assert!(matches!(p.payload, Payload::Data { .. }));
    }
}
