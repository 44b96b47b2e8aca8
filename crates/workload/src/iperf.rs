//! iperf-style synthetic flow generation.
//!
//! These generators produce the flow sets the micro-benchmarks drive
//! through the flow-level simulator: greedy long-lived flows like iperf's
//! TCP mode, arranged in the patterns §7.2.2 uses.

use dumbnet_types::HostId;

/// One flow to be placed on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Bytes to transfer.
    pub bytes: u64,
}

/// Full bipartite mesh: every host in `senders` streams to every host in
/// `receivers` (the aggregate leaf-to-leaf throughput experiment pairs
/// 14 hosts with 14 hosts).
#[must_use]
pub fn bipartite(senders: &[HostId], receivers: &[HostId], bytes: u64) -> Vec<FlowSpec> {
    senders
        .iter()
        .flat_map(|&src| {
            receivers
                .iter()
                .filter_map(move |&dst| (src != dst).then_some(FlowSpec { src, dst, bytes }))
        })
        .collect()
}

/// One-to-one pairing: sender `i` streams to receiver `i`.
///
/// # Panics
///
/// Panics when the slices differ in length — a test-setup error.
#[must_use]
pub fn paired(senders: &[HostId], receivers: &[HostId], bytes: u64) -> Vec<FlowSpec> {
    assert_eq!(senders.len(), receivers.len(), "pairing needs equal sets");
    senders
        .iter()
        .zip(receivers)
        .filter(|(s, d)| s != d)
        .map(|(&src, &dst)| FlowSpec { src, dst, bytes })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(range: std::ops::Range<u64>) -> Vec<HostId> {
        range.map(HostId).collect()
    }

    #[test]
    fn bipartite_counts() {
        let a = hosts(0..14);
        let b = hosts(14..28);
        let flows = bipartite(&a, &b, 1000);
        assert_eq!(flows.len(), 14 * 14);
        assert!(flows.iter().all(|f| f.src.get() < 14 && f.dst.get() >= 14));
    }

    #[test]
    fn bipartite_skips_self_flows() {
        let a = hosts(0..3);
        let flows = bipartite(&a, &a, 1);
        assert_eq!(flows.len(), 6);
    }

    #[test]
    fn paired_lines_up() {
        let a = hosts(0..5);
        let b = hosts(5..10);
        let flows = paired(&a, &b, 7);
        assert_eq!(flows.len(), 5);
        assert!(flows.iter().all(|f| f.dst.get() == f.src.get() + 5));
    }
}
