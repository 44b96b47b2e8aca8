//! ECN-driven congestion-avoiding rerouting (§6.2 / §8 future work).
//!
//! "In addition to Flowlet, we are implementing other typical traffic
//! engineering approaches as future work, such as congestion-avoiding
//! rerouting using based on early congestion notification (ECN)."
//!
//! The pieces fit the DumbNet division of labor exactly: the *switch*
//! contribution is stateless (a mark when the egress queue is deep — in
//! the emulator, [`LinkParams::ecn_threshold`](dumbnet_sim::LinkParams));
//! the receiver echoes marks to the sender
//! ([`ControlMessage::EcnEcho`](dumbnet_packet::ControlMessage)); and the
//! sender's *routing function* reacts by moving the flow to a different
//! cached path at the next flowlet-safe opportunity — all host state.

use std::collections::HashMap;

use dumbnet_host::pathtable::FlowKey;
use dumbnet_host::RoutingFn;
use dumbnet_types::{MacAddr, SimDuration, SimTime};

use crate::flowlet::FlowletRouting;

/// Flowlet routing with congestion-triggered path hopping: behaves like
/// [`FlowletRouting`], but an ECN echo immediately bumps the flow's
/// epoch, so the very next packet (a safe reordering point, since the
/// congested queue preserves ordering of the in-flight tail) takes a
/// different cached path.
#[derive(Debug)]
pub struct EcnFlowletRouting {
    inner: FlowletRouting,
    /// Extra epoch bumps applied by congestion signals.
    nudges: HashMap<FlowKey, u64>,
    /// Minimum spacing between congestion-triggered moves per flow
    /// (avoid thrashing while the echo pipeline drains).
    cooldown: SimDuration,
    last_nudge: HashMap<FlowKey, SimTime>,
    /// Congestion-triggered reroutes performed (for experiments).
    pub reroutes: u64,
}

impl EcnFlowletRouting {
    /// Creates the router with a flowlet timeout and a reroute cooldown.
    #[must_use]
    pub fn new(flowlet_timeout: SimDuration, cooldown: SimDuration) -> EcnFlowletRouting {
        EcnFlowletRouting {
            inner: FlowletRouting::new(flowlet_timeout),
            nudges: HashMap::new(),
            cooldown,
            last_nudge: HashMap::new(),
            reroutes: 0,
        }
    }
}

impl RoutingFn for EcnFlowletRouting {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
            + dumbnet_types::heap::hash_map(&self.nudges)
            + dumbnet_types::heap::hash_map(&self.last_nudge)
    }

    fn choose(
        &mut self,
        dst: MacAddr,
        flow: FlowKey,
        now: SimTime,
        available_paths: usize,
    ) -> Option<usize> {
        let base = self.inner.choose(dst, flow, now, available_paths)?;
        let nudge = self.nudges.get(&flow).copied().unwrap_or(0);
        if nudge == 0 || available_paths < 2 {
            return Some(base);
        }
        // A flow-dependent non-zero step: colliding flows that get
        // congestion signals together take *different* escape paths
        // instead of hopping in lockstep.
        let step = 1 + FlowletRouting::path_index(flow, nudge, available_paths - 1);
        Some((base + step) % available_paths)
    }

    fn on_congestion(&mut self, flow: FlowKey, now: SimTime) {
        let last = self.last_nudge.get(&flow).copied();
        if last.is_some_and(|t| now - t < self.cooldown) {
            return;
        }
        self.last_nudge.insert(flow, now);
        *self.nudges.entry(flow).or_insert(0) += 1;
        self.reroutes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn router() -> EcnFlowletRouting {
        EcnFlowletRouting::new(SimDuration::from_micros(500), SimDuration::from_millis(1))
    }

    #[test]
    fn congestion_moves_the_flow() {
        let mut r = router();
        let dst = MacAddr::for_host(1);
        let before = r.choose(dst, FlowKey(7), t(0), 2).unwrap();
        r.on_congestion(FlowKey(7), t(10));
        let after = r.choose(dst, FlowKey(7), t(20), 2).unwrap();
        assert_ne!(before, after, "flow must leave the congested path");
        assert_eq!(r.reroutes, 1);
    }

    #[test]
    fn cooldown_limits_thrashing() {
        let mut r = router();
        r.on_congestion(FlowKey(7), t(0));
        r.on_congestion(FlowKey(7), t(100)); // Inside the 1 ms cooldown.
        assert_eq!(r.reroutes, 1);
        r.on_congestion(FlowKey(7), t(2_000));
        assert_eq!(r.reroutes, 2);
    }

    #[test]
    fn other_flows_unaffected() {
        let mut r = router();
        let dst = MacAddr::for_host(1);
        let other_before = r.choose(dst, FlowKey(9), t(0), 2).unwrap();
        r.on_congestion(FlowKey(7), t(10));
        let other_after = r.choose(dst, FlowKey(9), t(20), 2).unwrap();
        assert_eq!(other_before, other_after);
    }
}
