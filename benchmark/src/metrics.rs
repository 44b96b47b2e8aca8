//! The metric catalogue: every name the benchmark prints, with unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test holds the two together).

/// One end-to-end metric: what a user of the simulator pays.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, all "lower is better", reported by every
/// workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        bound: 0.03,
    },
];

/// One per-layer metric: `(name, unit, better)`. A workload that never
/// enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Simulated results and verification (exact; identical run to run).
    ("failed_share", "ratio", "lower"),
    ("sim_loss_share", "ratio", "lower"),
    ("sim_discovery_s", "sim_s", "lower"),
    ("sim_recovery_ms", "sim_ms", "lower"),
    ("sim_fct_ms", "sim_ms", "lower"),
    // Spread of the timed repetitions behind `wall_s` (ungated).
    ("wall.median_s", "s", "lower"),
    ("wall.q1_s", "s", "lower"),
    ("wall.q3_s", "s", "lower"),
    ("wall.samples", "count", "higher"),
    ("wall.unresolved", "count", "lower"),
    // sim engine.
    ("sim.run_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.packets_sent", "count", "lower"),
    ("sim.packets_delivered", "count", "higher"),
    ("sim.drops", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.allocs_per_event", "count", "lower"),
    ("sim.alloc_bytes_per_event", "B", "lower"),
    ("sim.fixed_ns_per_packet", "ns", "lower"),
    ("sim.unattributed_share", "ratio", "lower"),
    ("sim.queue.near_ns_per_op", "ns", "lower"),
    ("sim.queue.far_ns_per_op", "ns", "lower"),
    ("sim.queue.burst_ns_per_op", "ns", "lower"),
    ("sim.shard.seq_ratio", "ratio", "lower"),
    ("sim.shard.balance", "ratio", "higher"),
    ("sim.shard.threaded_ns_per_event", "ns", "lower"),
    // sim::flowsim.
    ("sim.flowsim.start_us", "us", "lower"),
    ("sim.flowsim.reroute_us", "us", "lower"),
    ("sim.flowsim.advance_us", "us", "lower"),
    ("sim.flowsim.capacity_us", "us", "lower"),
    ("sim.flowsim.rate_query_us", "us", "lower"),
    ("sim.flowsim.solves", "count", "lower"),
    ("sim.flowsim.full_solves", "count", "lower"),
    ("sim.flowsim.flows_resolved", "count", "lower"),
    ("sim.flowsim.edges_resolved", "count", "lower"),
    ("sim.flowsim.max_component_flows", "count", "lower"),
    ("sim.flowsim.flows_per_solve", "count", "lower"),
    ("sim.flowsim.allocs_per_op", "count", "lower"),
    // sim::hybrid / ext.
    ("sim.hybrid.cap_events", "count", "lower"),
    ("sim.hybrid.ecn_flips", "count", "lower"),
    ("sim.hybrid.run_ms", "ms", "lower"),
    ("ext.ecn_path_hops", "count", "lower"),
    // switch.
    ("switch.forwarded", "count", "lower"),
    ("switch.id_replies", "count", "lower"),
    ("switch.per_hop_ns", "ns", "lower"),
    // types / packet.
    ("types.path_clone_pop_ns", "ns", "lower"),
    ("packet.data_new_ns", "ns", "lower"),
    ("packet.frame_codec_ns", "ns", "lower"),
    ("packet.control_codec_ns", "ns", "lower"),
    // topology.
    ("topology.generate_ms", "ms", "lower"),
    ("topology.spath_us", "us", "lower"),
    ("topology.ksp4_us", "us", "lower"),
    ("topology.pathgraph_build_us", "us", "lower"),
    ("topology.routecache_hit_ns", "ns", "lower"),
    ("topology.routecache_miss_us", "us", "lower"),
    ("topology.edgemap_build_ms", "ms", "lower"),
    // telemetry.
    ("telemetry.counter_inc_ns", "ns", "lower"),
    ("telemetry.hist_observe_ns", "ns", "lower"),
    ("telemetry.metrics", "count", "lower"),
    ("telemetry.snapshot_ms", "ms", "lower"),
    ("telemetry.to_json_ms", "ms", "lower"),
    // host.
    ("host.path_requests", "count", "lower"),
    ("host.queued_on_miss", "count", "lower"),
    ("host.floods_sent", "count", "lower"),
    ("host.pathtable_lookup_ns", "ns", "lower"),
    ("host.pathtable_invalidate_us", "us", "lower"),
    ("host.topocache_kpaths_us", "us", "lower"),
    // controller.
    ("controller.probes_sent", "count", "lower"),
    ("controller.path_requests", "count", "lower"),
    ("controller.patch_floods", "count", "lower"),
    ("controller.probes_per_link", "count", "lower"),
    ("controller.ns_per_probe", "ns", "lower"),
    ("controller.discovery_step_ns", "ns", "lower"),
    ("controller.allocs_per_probe", "count", "lower"),
    ("controller.log_append_ack_ns", "ns", "lower"),
    // core / workload.
    ("core.fabric_build_ms", "ms", "lower"),
    ("fabric.cold_ms", "ms", "lower"),
    ("fabric.steady_ms", "ms", "lower"),
    ("workload.plan_ms", "ms", "lower"),
    ("workload.flowmap_build_ms", "ms", "lower"),
    // The tracer itself.
    ("trace.overhead_share", "ratio", "lower"),
];

/// Unit of a per-layer metric.
///
/// # Panics
///
/// Panics on a name outside the catalogue (a benchmark bug: every name
/// printed must be declared here and in `BENCHMARK.json`).
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .or_else(|| END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// Occurrences of `"key": "value"` in the manifest.
    fn count(doc: &str, key: &str, value: &str) -> usize {
        doc.matches(&format!("\"{key}\": \"{value}\"")).count()
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let doc = include_str!("../../BENCHMARK.json");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &workloads::ALL {
            assert_eq!(count(doc, "name", w.name), 1, "workload {}", w.name);
            assert_eq!(count(doc, "why", w.why), 1, "why of {}", w.name);
        }
        let names = doc.matches("{\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + workloads::ALL.len(),
            "BENCHMARK.json names something the catalogue does not"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = PER_LAYER
            .iter()
            .map(|m| m.0)
            .chain(END_TO_END.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("sim.ns_per_event"), "ns");
    }
}
