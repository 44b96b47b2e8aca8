//! Property tests for histogram bucket boundaries.
//!
//! The bucket rule is load-bearing for every latency figure: a value
//! `v` lands in the first bucket whose inclusive upper bound is `>= v`,
//! and anything beyond the last bound lands in the overflow slot. These
//! tests pin that rule against arbitrary bound layouts and inputs, and
//! pin the doubling-constructor geometry the RTT histograms rely on.

use proptest::collection::vec;
use proptest::prelude::*;

use dumbnet_telemetry::Histogram;

/// Strictly increasing bounds, built from positive gaps so the
/// constructor's monotonicity assertion always holds.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    vec(1u64..1_000, 1..8).prop_map(|gaps| {
        gaps.iter()
            .scan(0u64, |acc, &g| {
                *acc += g;
                Some(*acc)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn observations_land_in_the_defined_bucket(
        bounds in bounds_strategy(),
        values in vec(0u64..10_000, 1..64),
    ) {
        let h = Histogram::new(bounds.clone());
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        // Recompute every bucket straight from the definition.
        let mut expect = vec![0u64; bounds.len() + 1];
        for &v in &values {
            let ix = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            expect[ix] += 1;
        }
        prop_assert_eq!(snap.counts, expect);
    }

    #[test]
    fn clones_share_one_set_of_cells(
        bounds in bounds_strategy(),
        values in vec(0u64..10_000, 1..64),
    ) {
        // The node's handle and the registry's clone are one histogram:
        // observations through either show up in both, exactly as if
        // one handle had taken them all.
        let (node, registry) = {
            let h = Histogram::new(bounds.clone());
            (h.clone(), h)
        };
        let alone = Histogram::new(bounds);
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 { &node } else { &registry }.observe(v);
            alone.observe(v);
        }
        prop_assert_eq!(node.snapshot(), registry.snapshot());
        prop_assert_eq!(node.snapshot(), alone.snapshot());
    }

    #[test]
    fn a_snapshot_holds_every_earlier_write(
        bounds in bounds_strategy(),
        before in vec(0u64..10_000, 0..32),
        after in vec(0u64..10_000, 1..32),
    ) {
        // No lock orders a write before a read any more; on one thread
        // program order does, write by write.
        let h = Histogram::new(bounds);
        let mut expect = (0u64, 0u64);
        for batch in [&before, &after] {
            for &v in batch {
                h.observe(v);
                expect = (expect.0 + 1, expect.1 + v);
            }
            let snap = h.snapshot();
            prop_assert_eq!((snap.count, snap.sum), expect);
            prop_assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
        }
    }

    #[test]
    fn bounds_are_inclusive_upper_edges(bounds in bounds_strategy()) {
        let snap = Histogram::new(bounds.clone()).snapshot();
        prop_assert_eq!(snap.bucket_for(0), 0);
        for (ix, &b) in bounds.iter().enumerate() {
            // A value exactly on a bound belongs to that bucket…
            prop_assert_eq!(snap.bucket_for(b), ix);
            // …and one past it belongs to the next (possibly overflow).
            prop_assert_eq!(snap.bucket_for(b + 1), ix + 1);
        }
    }

    #[test]
    fn doubling_constructor_doubles(first in 1u64..1_000, buckets in 1usize..12) {
        let snap = Histogram::doubling(first, buckets).snapshot();
        prop_assert_eq!(snap.bounds[0], first);
        prop_assert!(snap.bounds.windows(2).all(|w| w[1] == w[0] * 2));
        prop_assert_eq!(snap.bounds.len(), buckets);
        prop_assert_eq!(snap.counts.len(), buckets + 1);
        prop_assert_eq!(snap.count, 0);
    }

    /// The one-allocation doubling bounds are the ones the old scan
    /// built, saturation included: `first, 2·first, …`, with a saturated
    /// `u64::MAX` listed once.
    #[test]
    fn doubling_bounds_match_the_doubling_scan(
        first in prop_oneof![1u64..1_000, (u64::MAX / 4)..u64::MAX],
        buckets in 0usize..80,
    ) {
        let mut scan: Vec<u64> = (0..buckets)
            .scan(first, |b, _| {
                let cur = *b;
                *b = b.saturating_mul(2);
                Some(cur)
            })
            .collect();
        scan.dedup();
        prop_assert_eq!(&Histogram::doubling_bounds(first, buckets)[..], &scan[..]);
    }

    /// Histograms over one shared bounds `Arc` snapshot byte for byte
    /// like histograms that own a copy, and do not see each other's
    /// observations.
    #[test]
    fn shared_bounds_snapshot_like_owned_ones(
        bounds in bounds_strategy(),
        values in vec(0u64..10_000, 0..64),
    ) {
        let shared: std::sync::Arc<[u64]> = bounds.clone().into();
        let (a, b) = (Histogram::with_bounds(shared.clone()), Histogram::with_bounds(shared));
        let owned = Histogram::new(bounds);
        for &v in &values {
            a.observe(v);
            owned.observe(v);
        }
        prop_assert_eq!(a.snapshot(), owned.snapshot());
        prop_assert_eq!(b.snapshot().count, 0);
    }
}
