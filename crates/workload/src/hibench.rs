//! HiBench-style big-data job models (§7.4).
//!
//! The paper drives Intel HiBench over the testbed "to capture the flow
//! dependencies in real-world applications". Each of the five tasks in
//! Figure 13 is modeled as a barrier-synchronized sequence of stages; a
//! stage is a set of network flows (the shuffle or replication traffic)
//! plus a per-host compute time. The communication *structure* per task:
//!
//! | Task        | Structure                                            |
//! |-------------|------------------------------------------------------|
//! | Aggregation | map → medium all-to-all shuffle → reduce             |
//! | Join        | two inputs: heavy shuffle, then second shuffle        |
//! | Pagerank    | iterative: 3 × (compute → half-size shuffle)          |
//! | Terasort    | full-data shuffle, then full-data replicated write    |
//! | Wordcount   | map-heavy, small combiner-reduced shuffle             |
//!
//! Shuffle stages are all-to-all between the participating hosts with
//! per-pair volume `stage_bytes / n²` — the MapReduce hash-partition
//! pattern. Absolute sizes are parameterized by `input_bytes`; Figure 13
//! reproduces with the defaults and the paper's 500 Mbps spine caps.

use rand::Rng;

use dumbnet_types::{HostId, SimDuration};

use crate::iperf::FlowSpec;

/// The five HiBench tasks of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HiBenchKind {
    /// Hive aggregation query.
    Aggregation,
    /// Hive two-table join.
    Join,
    /// Iterative PageRank.
    Pagerank,
    /// TeraSort.
    Terasort,
    /// WordCount.
    Wordcount,
}

impl HiBenchKind {
    /// All tasks in the figure's order.
    pub const ALL: [HiBenchKind; 5] = [
        HiBenchKind::Aggregation,
        HiBenchKind::Join,
        HiBenchKind::Pagerank,
        HiBenchKind::Terasort,
        HiBenchKind::Wordcount,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HiBenchKind::Aggregation => "Aggregation",
            HiBenchKind::Join => "Join",
            HiBenchKind::Pagerank => "Pagerank",
            HiBenchKind::Terasort => "Terasort",
            HiBenchKind::Wordcount => "Wordcount",
        }
    }

    /// `(shuffle_fraction_per_stage, compute_secs_per_stage)` profile.
    fn profile(self) -> (Vec<f64>, Vec<f64>) {
        match self {
            // One medium shuffle between map and reduce.
            HiBenchKind::Aggregation => (vec![0.6], vec![8.0, 6.0]),
            // Join shuffles both inputs, then re-shuffles the joined set.
            HiBenchKind::Join => (vec![0.9, 0.4], vec![10.0, 8.0, 6.0]),
            // Three ranking iterations, each exchanging half the data.
            HiBenchKind::Pagerank => (vec![0.5, 0.5, 0.5], vec![6.0, 6.0, 6.0, 4.0]),
            // Everything moves in the shuffle, then replicated output.
            HiBenchKind::Terasort => (vec![1.0, 1.0], vec![4.0, 4.0, 4.0]),
            // Combiners shrink the shuffle to a sliver; compute dominates.
            HiBenchKind::Wordcount => (vec![0.08], vec![14.0, 4.0]),
        }
    }
}

/// One barrier-synchronized stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Compute time on every host before the stage's flows start.
    pub compute: SimDuration,
    /// The network flows of the stage (all must finish before the next
    /// stage starts).
    pub flows: Vec<FlowSpec>,
}

/// A modeled job: stages executed in order with barriers between them.
#[derive(Debug, Clone)]
pub struct Job {
    /// The task this job models.
    pub kind: HiBenchKind,
    /// The stages.
    pub stages: Vec<Stage>,
}

impl Job {
    /// Generates a job of `kind` over `hosts`, moving `input_bytes` of
    /// data in total. Per-pair shuffle volumes get ±25 % jitter (skewed
    /// partitions), seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two hosts participate.
    pub fn generate<R: Rng>(
        kind: HiBenchKind,
        hosts: &[HostId],
        input_bytes: u64,
        rng: &mut R,
    ) -> Job {
        assert!(hosts.len() >= 2, "a distributed job needs ≥2 hosts");
        let (shuffles, computes) = kind.profile();
        let n = hosts.len() as u64;
        let mut stages = Vec::new();
        for (ix, &fraction) in shuffles.iter().enumerate() {
            let stage_bytes = (input_bytes as f64 * fraction) as u64;
            let per_pair = stage_bytes / (n * n).max(1);
            let mut flows = Vec::new();
            for &src in hosts {
                for &dst in hosts {
                    if src == dst {
                        continue;
                    }
                    // Hash-partition skew: per-pair volumes follow a
                    // lognormal (σ = 1) so a handful of heavy reducers
                    // dominate each stage's tail — the imbalance flowlet
                    // TE exists to absorb.
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    let bytes = ((per_pair as f64) * z.exp()) as u64;
                    if bytes > 0 {
                        flows.push(FlowSpec { src, dst, bytes });
                    }
                }
            }
            stages.push(Stage {
                compute: SimDuration::from_secs_f64(computes[ix]),
                flows,
            });
        }
        // Trailing compute-only stage (the final reduce/write CPU work).
        if computes.len() > shuffles.len() {
            stages.push(Stage {
                compute: SimDuration::from_secs_f64(computes[shuffles.len()]),
                flows: Vec::new(),
            });
        }
        Job { kind, stages }
    }

    /// Total compute time across barriers (the network-independent floor
    /// of the job's duration).
    #[must_use]
    pub fn compute_floor(&self) -> SimDuration {
        self.stages.iter().map(|s| s.compute).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hosts() -> Vec<HostId> {
        (1..27).map(HostId).collect()
    }

    impl Job {
        /// Total bytes the job moves over the network.
        fn network_bytes(&self) -> u64 {
            let flows = self.stages.iter().flat_map(|s| &s.flows);
            flows.map(|f| f.bytes).sum()
        }
    }

    #[test]
    fn all_kinds_generate() {
        let mut rng = StdRng::seed_from_u64(3);
        for kind in HiBenchKind::ALL {
            let job = Job::generate(kind, &hosts(), 20_000_000_000, &mut rng);
            assert!(!job.stages.is_empty(), "{:?}", kind);
            assert!(job.network_bytes() > 0);
            assert!(job.compute_floor() > SimDuration::ZERO);
        }
    }

    #[test]
    fn terasort_moves_most_wordcount_least() {
        let mut rng = StdRng::seed_from_u64(3);
        let tera = Job::generate(HiBenchKind::Terasort, &hosts(), 10_000_000_000, &mut rng);
        let wc = Job::generate(HiBenchKind::Wordcount, &hosts(), 10_000_000_000, &mut rng);
        assert!(
            tera.network_bytes() > 10 * wc.network_bytes(),
            "terasort {} vs wordcount {}",
            tera.network_bytes(),
            wc.network_bytes()
        );
    }

    #[test]
    fn pagerank_is_iterative() {
        let mut rng = StdRng::seed_from_u64(3);
        let job = Job::generate(HiBenchKind::Pagerank, &hosts(), 1_000_000_000, &mut rng);
        let shuffle_stages = job.stages.iter().filter(|s| !s.flows.is_empty()).count();
        assert_eq!(shuffle_stages, 3);
    }

    #[test]
    fn shuffles_are_all_to_all() {
        let mut rng = StdRng::seed_from_u64(3);
        let h: Vec<HostId> = (0..4).map(HostId).collect();
        let job = Job::generate(HiBenchKind::Aggregation, &h, 1_000_000_000, &mut rng);
        let stage = &job.stages[0];
        assert_eq!(stage.flows.len(), 4 * 3);
    }

    #[test]
    fn volume_scales_with_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = Job::generate(HiBenchKind::Join, &hosts(), 1_000_000_000, &mut rng);
        let big = Job::generate(HiBenchKind::Join, &hosts(), 10_000_000_000, &mut rng);
        let ratio = big.network_bytes() as f64 / small.network_bytes() as f64;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let job = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Job::generate(HiBenchKind::Terasort, &hosts(), 5_000_000_000, &mut rng).network_bytes()
        };
        assert_eq!(job(9), job(9));
        assert_ne!(job(9), job(10));
    }

    #[test]
    #[should_panic(expected = "≥2 hosts")]
    fn rejects_single_host() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Job::generate(HiBenchKind::Terasort, &[HostId(0)], 1, &mut rng);
    }
}
