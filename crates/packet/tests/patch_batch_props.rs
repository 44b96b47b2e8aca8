//! Property tests for the batched-patch wire codec (DESIGN.md §9).
//!
//! Two laws: every structurally valid batch survives a wire round trip
//! unchanged; and encoding is deterministic and canonical (the same
//! batch — or the same seed — always yields byte-identical frames).

use proptest::prelude::*;

use dumbnet_packet::control::{PatchBatch, PatchEntry, TopoDelta};
use dumbnet_types::{PortId, PortNo, SwitchId};

fn arb_port_id() -> impl Strategy<Value = PortId> {
    (any::<u64>(), 1u8..=254)
        .prop_map(|(sw, p)| PortId::new(SwitchId(sw), PortNo::new(p).expect("1..=254 is valid")))
}

fn arb_switch_pairs() -> impl Strategy<Value = Vec<(SwitchId, SwitchId)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(a, b)| (SwitchId(a), SwitchId(b)))
            .collect()
    })
}

fn arb_delta() -> impl Strategy<Value = TopoDelta> {
    (
        (
            arb_switch_pairs(),
            proptest::collection::vec((arb_port_id(), arb_port_id()), 0..6),
        ),
        (arb_switch_pairs(), arb_switch_pairs()),
    )
        .prop_map(|((down, up), (quarantine, unquarantine))| TopoDelta {
            down,
            up,
            quarantine,
            unquarantine,
        })
}

fn arb_entry() -> impl Strategy<Value = PatchEntry> {
    (any::<u64>(), arb_delta()).prop_map(|(version, delta)| PatchEntry { version, delta })
}

fn arb_batch() -> impl Strategy<Value = PatchBatch> {
    (
        (any::<u64>(), any::<u64>()),
        (1u16..=8, any::<u16>()),
        proptest::collection::vec(arb_entry(), 0..12),
    )
        .prop_map(|((epoch, term), (segs, seg_pick), entries)| PatchBatch {
            epoch,
            term,
            seg: seg_pick % segs,
            segs,
            entries,
        })
}

proptest! {
    /// Round trip: `from_wire(to_wire(b)) == b`, and `wire_len` predicts
    /// the emitted size exactly.
    #[test]
    fn roundtrip_preserves_batch(batch in arb_batch()) {
        let wire = batch.to_wire();
        prop_assert_eq!(wire.len(), batch.wire_len());
        let parsed = PatchBatch::from_wire(&wire).expect("round trip");
        prop_assert_eq!(parsed, batch);
    }

    /// Determinism and canonicality: encoding the same batch twice is
    /// byte-identical, and re-encoding a decoded batch reproduces the
    /// original frame bit for bit (there is exactly one wire image per
    /// batch — the same-seed byte-identity law the figure checksums
    /// lean on).
    #[test]
    fn encoding_is_deterministic_and_canonical(batch in arb_batch()) {
        let first = batch.to_wire();
        prop_assert_eq!(&first, &batch.to_wire());
        let decoded = PatchBatch::from_wire(&first).expect("decodes");
        prop_assert_eq!(decoded.to_wire(), first);
    }

    /// Every proper prefix of a valid frame is rejected: the entry
    /// counts in the header pin the exact length, so truncation can
    /// never silently drop tail entries.
    #[test]
    fn any_truncation_is_rejected(batch in arb_batch(), cut in any::<u32>()) {
        let wire = batch.to_wire();
        let keep = (cut as usize) % wire.len();
        prop_assert!(PatchBatch::from_wire(&wire[..keep]).is_err());
    }

    /// Trailing garbage after a complete batch is rejected, however
    /// short.
    #[test]
    fn trailing_bytes_are_rejected(batch in arb_batch(), tail in 1usize..4) {
        let mut wire = batch.to_wire();
        wire.extend(std::iter::repeat_n(0u8, tail));
        prop_assert!(PatchBatch::from_wire(&wire).is_err());
    }

    /// Any format byte other than the v1/v2 markers is refused up
    /// front.
    #[test]
    fn unknown_format_byte_is_rejected(batch in arb_batch(), fmt in 3u8..=255) {
        let mut wire = batch.to_wire();
        wire[0] = fmt;
        prop_assert!(PatchBatch::from_wire(&wire).is_err());
    }
}

/// Hand-crafted structural rejections the generators cannot produce
/// (they only build valid batches).
#[test]
fn segment_bounds_are_enforced_on_the_wire() {
    let mut wire = PatchBatch::singleton(1, TopoDelta::default(), 1).to_wire();
    // Bytes 17..19 are `seg`, 19..21 are `segs` (after fmt+epoch+term).
    wire[19] = 0;
    wire[20] = 0;
    assert!(
        PatchBatch::from_wire(&wire).is_err(),
        "zero segment total accepted"
    );
    wire[20] = 1;
    wire[18] = 1; // seg = 1 of segs = 1.
    assert!(
        PatchBatch::from_wire(&wire).is_err(),
        "segment index past the total accepted"
    );
}

/// A reserved port value (0 or 255) inside an `up` entry is refused.
#[test]
fn reserved_port_values_are_rejected() {
    let delta = TopoDelta {
        up: vec![(
            PortId::new(SwitchId(1), PortNo::new(2).expect("valid")),
            PortId::new(SwitchId(3), PortNo::new(4).expect("valid")),
        )],
        ..TopoDelta::default()
    };
    let good = PatchBatch::singleton(1, delta, 1).to_wire();
    for bad_port in [0u8, 0xFF] {
        let mut wire = good.clone();
        let last = wire.len() - 1; // Final byte is the second port number.
        wire[last] = bad_port;
        assert!(
            PatchBatch::from_wire(&wire).is_err(),
            "reserved port {bad_port} accepted"
        );
    }
}
