//! The six workloads. Names are fixed: later issues refer to them.
//!
//! A workload is a function from `(seed, tracer)` to one [`Rep`]: it
//! generates its inputs from the seed, times set-up and the run apart,
//! reads the counters the program already publishes and folds the
//! simulated results into a checksum. The seed reaches the program only
//! through the generated inputs.

use std::time::Instant;

use dumbnet_sim::{Engine, WorldStats};
use dumbnet_telemetry::{NodeKind, TelemetrySnapshot};

use crate::alloc;
use crate::trace::Tracer;
use crate::Values;

pub mod churn;
pub mod discovery;
pub mod fabric_mix;
pub mod incast;
pub mod storm;

/// The seed whose checksums are pinned in [`Workload::pin`].
pub const PIN_SEED: u64 = 11;

/// Result of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of set-up: topology generation, world or fabric
    /// construction, workload planning.
    pub setup_s: f64,
    /// Host seconds of the timed region: everything after set-up up to
    /// and including the final `stats()` read.
    pub wall_s: f64,
    /// Fold of the simulated results (see [`Fold`]).
    pub checksum: u64,
    /// Units of work done (events, probes, solver operations or solves):
    /// the denominator of the per-unit ratios.
    pub work: u64,
    /// Allocations and bytes requested inside the timed region (zero
    /// unless the allocator is counting).
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    /// Counts read from the program and simulated results, by per-layer
    /// metric name. Exact: they must repeat bit for bit.
    pub exact: Vec<(&'static str, f64)>,
    /// Host-time measurements only a traced repetition takes (slopes,
    /// polls), by per-layer metric name.
    pub timed: Vec<(&'static str, f64)>,
    /// Invariants this repetition broke; empty when it is correct.
    pub broken: Vec<String>,
}

/// Stopwatch over the phases of a repetition: host time and, when the
/// allocator is counting, allocations since the previous lap.
pub struct Clock {
    at: Instant,
    counts: alloc::AllocCounts,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            at: Instant::now(),
            counts: alloc::read(),
        }
    }

    /// Seconds, allocations and bytes since the previous lap.
    fn lap(&mut self) -> (f64, u64, u64) {
        let (now, counts) = (Instant::now(), alloc::read());
        let lap = (
            (now - self.at).as_secs_f64(),
            counts.allocs - self.counts.allocs,
            counts.bytes - self.counts.bytes,
        );
        (self.at, self.counts) = (now, counts);
        lap
    }
}

impl Rep {
    /// Closes the set-up phase.
    pub fn end_setup(&mut self, clock: &mut Clock) {
        self.setup_s = clock.lap().0;
    }

    /// Closes the timed region.
    pub fn end_run(&mut self, clock: &mut Clock) {
        (self.wall_s, self.run_allocs, self.run_alloc_bytes) = clock.lap();
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.push((name, value));
    }

    /// Records the engine's own counters; returns the drops of all
    /// kinds summed.
    pub fn world_stats(&mut self, stats: &WorldStats) -> u64 {
        let drops = stats.drops_down
            + stats.drops_queue
            + stats.drops_loss
            + stats.drops_corrupt
            + stats.drops_crashed;
        self.exact("sim.events", stats.events as f64);
        self.exact("sim.packets_sent", stats.packets_sent as f64);
        self.exact("sim.packets_delivered", stats.packets_delivered as f64);
        self.exact("sim.drops", drops as f64);
        drops
    }

    /// In a traced repetition, takes the telemetry snapshot (under a
    /// span) and records the registry size and the switches' forward
    /// count; hands the snapshot back for workload-specific reads.
    pub fn read_telemetry<E: Engine>(
        &mut self,
        world: &mut E,
        tr: &mut Tracer,
    ) -> Option<TelemetrySnapshot> {
        if !tr.on() {
            return None;
        }
        let s = tr.begin("telemetry.snapshot");
        let snap = world.telemetry_snapshot();
        tr.end(s);
        self.exact("telemetry.metrics", snap.metrics.len() as f64);
        self.exact(
            "switch.forwarded",
            snap.sum_counters(NodeKind::Switch, "forwarded") as f64,
        );
        Some(snap)
    }

    /// Records a broken invariant unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// Order-sensitive fold of `u64` results into one checksum
/// (FNV-1a over the eight little-endian bytes of each value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(u64);

impl Fold {
    pub fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    #[must_use]
    pub fn with(mut self, v: u64) -> Fold {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one unit of [`Rep::work`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    Event,
    Probe,
    Op,
    Solve,
}

/// A check of a workload's results, given the seed and its checksum.
pub type CrossCheck = fn(seed: u64, checksum: u64) -> Result<(), String>;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// Measured repetitions of a fixed-work run (`--reps` overrides).
    pub reps: usize,
    pub work_unit: WorkUnit,
    /// Checksum every repetition must produce at [`PIN_SEED`].
    pub pin: u64,
    pub run: fn(seed: u64, tr: &mut Tracer) -> Rep,
    /// Run once per set, outside any timed region: a check against a
    /// second implementation.
    pub cross_check: Option<CrossCheck>,
    /// The outside estimate: `(kernel metric, times the layer ran)` for
    /// every kernel the workload's own published counts can honestly
    /// multiply out. Deliberately partial; `sim.unattributed_share` says
    /// how much wall is left over.
    pub attribute: fn(m: &Values) -> Vec<(&'static str, f64)>,
}

/// Attribution rows every packet workload shares: one queue push+pop
/// per event, and the counter cells written per run — the engine's own
/// three, the per-wire sent/delivered pair, the switches' forward count.
pub fn engine_rows(m: &Values) -> Vec<(&'static str, f64)> {
    let counter_incs = m["sim.events"]
        + 2.0 * m["sim.packets_sent"]
        + 2.0 * m["sim.packets_delivered"]
        + m["switch.forwarded"];
    vec![
        ("sim.queue.near_ns_per_op", m["sim.events"]),
        ("telemetry.counter_inc_ns", counter_incs),
    ]
}

/// The workloads, in reporting order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "storm_chain",
        why: "pure sim engine + switch pop + Path cursor + telemetry cells; no host, controller or flow plane",
        reps: 12,
        work_unit: WorkUnit::Event,
        pin: 0x0a29_0c72_eb9a_512e,
        run: storm::chain,
        cross_check: None,
        attribute: storm::attribute,
    },
    Workload {
        name: "storm_sharded",
        why: "the same storm on 8 sequential shards: windows, outbox exchange, content-keyed merge",
        reps: 10,
        work_unit: WorkUnit::Event,
        pin: 0x0a29_0c72_eb9a_512e,
        run: storm::sharded,
        cross_check: Some(storm::equals_chain),
        attribute: storm::attribute,
    },
    Workload {
        name: "discovery_fat_tree",
        why: "control plane only: windowed BFS discovery, control codec, far-future timers in the event queue",
        reps: 8,
        work_unit: WorkUnit::Probe,
        pin: 0x5340_b3cf_4e77_c324,
        run: discovery::run,
        cross_check: None,
        attribute: discovery::attribute,
    },
    Workload {
        name: "flow_churn",
        why: "incremental max-min solver under churn, zero packet events: packet-engine changes must not move it",
        reps: 10,
        work_unit: WorkUnit::Op,
        pin: 0xe56e_c683_88e8_6156,
        run: churn::run,
        cross_check: Some(churn::reference_solver_check),
        attribute: |_| Vec::new(),
    },
    Workload {
        name: "fabric_mix",
        why: "the composite users run: cold path service, host caches, trunk failover, steady forwarding",
        reps: 8,
        work_unit: WorkUnit::Event,
        pin: 0x99d9_4f25_32d0_267e,
        run: fabric_mix::run,
        cross_check: None,
        attribute: fabric_mix::attribute,
    },
    Workload {
        name: "hybrid_incast",
        why: "scale and memory: 8192-host fabric build, hybrid coupling, one giant incast component",
        reps: 8,
        work_unit: WorkUnit::Solve,
        pin: 0xc0ee_c506_bdbd_ffa2,
        run: incast::run,
        cross_check: None,
        attribute: |_| vec![("core.fabric_build_ms", 1.0)],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_sensitive_and_stable() {
        let a = Fold::new().with(1).with(2).finish();
        let b = Fold::new().with(2).with(1).finish();
        assert_ne!(a, b);
        assert_eq!(a, Fold::new().with(1).with(2).finish());
        // FNV-1a of eight zero bytes, fixed forever: pins depend on it.
        assert_eq!(Fold::new().with(0).finish(), 0xa8c7_f832_281a_39c5);
        assert_ne!(Fold::new().with(0).finish(), Fold::new().finish());
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(w.reps >= 8, "{}: fewer than 8 repetitions", w.name);
            assert!(w.why.len() <= 200);
        }
        assert!(by_name("nope").is_none());
    }
}
