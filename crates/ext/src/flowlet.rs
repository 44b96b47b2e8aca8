//! Flowlet-based traffic engineering (§6.2).
//!
//! "To implement flowlet-based load balancing in DumbNet, the routing
//! function uses flowlet ID instead of destination MAC address, taking
//! the packet's destination IP address, port number, and a timestamp into
//! consideration. The function can then deterministically choose one of
//! the many k paths available in the PathTable, based on the flowlet ID,
//! which will be bumped whenever flowlet timestamp expires."
//!
//! Because a flowlet boundary is an idle gap longer than the network's
//! feedback delay, the re-ordered packets of different flowlets cannot
//! overtake each other — which is why flowlet switching is safe where
//! per-packet spraying is not.

use std::collections::HashMap;

use dumbnet_host::pathtable::FlowKey;
use dumbnet_host::RoutingFn;
use dumbnet_types::{MacAddr, SimDuration, SimTime};

/// Per-flow flowlet tracking state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowletState {
    /// Last packet time observed for the flow.
    pub last_packet: SimTime,
    /// Current flowlet epoch (bumps on every idle gap > timeout).
    pub epoch: u64,
}

/// The flowlet routing function, installed into a
/// [`HostAgent`](dumbnet_host::HostAgent) via
/// [`HostAgent::with_routing`](dumbnet_host::HostAgent::with_routing).
#[derive(Debug)]
pub struct FlowletRouting {
    timeout: SimDuration,
    flows: HashMap<FlowKey, FlowletState>,
    /// Number of flowlet boundaries observed (for experiments).
    pub flowlets_started: u64,
}

impl FlowletRouting {
    /// Creates a flowlet router with the given idle-gap timeout.
    ///
    /// Data-center flowlet timeouts are typically a few hundred
    /// microseconds — larger than one RTT, far smaller than a flow.
    #[must_use]
    pub fn new(timeout: SimDuration) -> FlowletRouting {
        FlowletRouting {
            timeout,
            flows: HashMap::new(),
            flowlets_started: 0,
        }
    }

    /// The flowlet state for a flow, if tracked.
    #[must_use]
    pub fn state(&self, flow: FlowKey) -> Option<FlowletState> {
        self.flows.get(&flow).copied()
    }

    /// The deterministic flowlet → path mapping: mix the flow key and
    /// epoch, reduce modulo the path count.
    #[must_use]
    pub fn path_index(flow: FlowKey, epoch: u64, paths: usize) -> usize {
        debug_assert!(paths > 0);
        // SplitMix64-style mixing for a uniform spread.
        let mut x = flow.0 ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % paths as u64) as usize
    }
}

impl RoutingFn for FlowletRouting {
    fn heap_bytes(&self) -> usize {
        dumbnet_types::heap::hash_map(&self.flows)
    }

    fn choose(
        &mut self,
        _dst: MacAddr,
        flow: FlowKey,
        now: SimTime,
        available_paths: usize,
    ) -> Option<usize> {
        if available_paths == 0 {
            return None;
        }
        let state = self.flows.entry(flow).or_insert_with(|| FlowletState {
            last_packet: now,
            epoch: 0,
        });
        if now - state.last_packet > self.timeout {
            state.epoch += 1;
            self.flowlets_started += 1;
        }
        state.last_packet = now;
        Some(Self::path_index(flow, state.epoch, available_paths))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn dst() -> MacAddr {
        MacAddr::for_host(1)
    }

    #[test]
    fn same_flowlet_keeps_path() {
        let mut r = FlowletRouting::new(SimDuration::from_micros(500));
        let first = r.choose(dst(), FlowKey(7), t(0), 4).unwrap();
        for i in 1..100 {
            // 10 µs spacing: continuous burst, one flowlet.
            let ix = r.choose(dst(), FlowKey(7), t(i * 10), 4).unwrap();
            assert_eq!(ix, first);
        }
        assert_eq!(r.flowlets_started, 0);
        assert_eq!(r.state(FlowKey(7)).unwrap().epoch, 0);
    }

    #[test]
    fn idle_gap_starts_new_flowlet() {
        let mut r = FlowletRouting::new(SimDuration::from_micros(500));
        r.choose(dst(), FlowKey(7), t(0), 4);
        // A 2 ms pause exceeds the 500 µs timeout.
        r.choose(dst(), FlowKey(7), t(2_000), 4);
        assert_eq!(r.flowlets_started, 1);
        assert_eq!(r.state(FlowKey(7)).unwrap().epoch, 1);
    }

    #[test]
    fn epochs_spread_over_paths() {
        // Across many epochs the deterministic mapping must use every
        // path roughly uniformly.
        let k = 4;
        let mut counts = vec![0usize; k];
        for epoch in 0..4_000 {
            counts[FlowletRouting::path_index(FlowKey(42), epoch, k)] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "unbalanced spread: {counts:?}");
        }
    }

    #[test]
    fn distinct_flows_get_distinct_paths() {
        let mut r = FlowletRouting::new(SimDuration::from_micros(500));
        let mut seen = std::collections::HashSet::new();
        for f in 0..64 {
            seen.insert(r.choose(dst(), FlowKey(f), t(0), 8).unwrap());
        }
        assert!(seen.len() >= 6, "only {} of 8 paths used", seen.len());
    }

    #[test]
    fn mapping_is_deterministic() {
        assert_eq!(
            FlowletRouting::path_index(FlowKey(9), 3, 5),
            FlowletRouting::path_index(FlowKey(9), 3, 5)
        );
    }

    #[test]
    fn zero_paths_declines() {
        let mut r = FlowletRouting::new(SimDuration::from_micros(500));
        assert_eq!(r.choose(dst(), FlowKey(1), t(0), 0), None);
    }
}
