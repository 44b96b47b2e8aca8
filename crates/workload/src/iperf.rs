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
    fn paired_lines_up() {
        let a = hosts(0..5);
        let b = hosts(5..10);
        let flows = paired(&a, &b, 7);
        assert_eq!(flows.len(), 5);
        assert!(flows.iter().all(|f| f.dst.get() == f.src.get() + 5));
    }
}
