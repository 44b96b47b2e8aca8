//! Property-based tests over the core data structures and invariants.

use std::collections::HashSet;

use proptest::prelude::*;

use dumbnet::packet::{DumbNetFrame, EthernetFrame, LabelStack, Packet};
use dumbnet::sim::FlowSim;
use dumbnet::topology::views::trace_tag_path;
use dumbnet::topology::{generators, k_shortest_routes, pathgraph, spath, PathGraphParams};
use dumbnet::types::{Bandwidth, HostId, MacAddr, Path, SimTime, SwitchId, Tag};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a valid tag path (port tags, occasionally an ID query).
fn arb_path() -> impl Strategy<Value = Path> {
    proptest::collection::vec(
        prop_oneof![9 => 1u8..=254, 1 => Just(0u8)],
        0..Path::MAX_LEN,
    )
    .prop_map(|bytes| {
        Path::from_tags(bytes.into_iter().map(Tag)).expect("all values valid in paths")
    })
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

proptest! {
    /// Ethernet frames round-trip through wire bytes, and any single-bit
    /// corruption is caught by the FCS.
    #[test]
    fn ethernet_round_trip_and_fcs(
        dst in arb_mac(),
        src in arb_mac(),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<u16>(),
    ) {
        let frame = EthernetFrame::new(dst, src, ethertype, payload);
        let wire = frame.to_wire();
        prop_assert_eq!(EthernetFrame::from_wire(&wire).unwrap(), frame);
        // Corrupt one bit.
        let mut bad = wire.clone();
        let bit = usize::from(flip) % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(EthernetFrame::from_wire(&bad).is_err());
    }

    /// DumbNet frames round-trip and the pop sequence equals the path.
    #[test]
    fn dumbnet_frame_round_trip(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let f = DumbNetFrame::encapsulate(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            path.clone(),
            0x0800,
            payload,
        );
        let mut parsed = DumbNetFrame::from_wire(&f.to_wire()).unwrap();
        prop_assert_eq!(&parsed, &f);
        let mut popped = Vec::new();
        while let Some(t) = parsed.pop_tag() {
            popped.push(t);
        }
        prop_assert_eq!(popped.as_slice(), path.tags());
        prop_assert!(parsed.strip_delivery().is_ok());
    }

    /// The MPLS encoding is a lossless alternative representation.
    #[test]
    fn mpls_round_trip(path in arb_path()) {
        let stack = LabelStack::from_path(&path);
        prop_assert_eq!(stack.to_path().unwrap(), path.clone());
        let wire = stack.to_wire();
        let (parsed, used) = LabelStack::from_wire(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed.to_path().unwrap(), path.clone());
        // Size: one 4-byte entry per tag plus the sentinel.
        prop_assert_eq!(stack.wire_len(), (path.len() + 1) * 4);
    }

    /// Packet wire-length accounting matches the byte-level frame.
    #[test]
    fn packet_wire_len_matches_frame(
        path in arb_path(),
        bytes in 0usize..2000,
    ) {
        let pkt = Packet::data(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            path.clone(),
            1,
            0,
            bytes,
        );
        let frame = DumbNetFrame::encapsulate(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            path,
            0x0800,
            vec![0; bytes + 16],
        );
        prop_assert_eq!(pkt.wire_len(), frame.wire_len());
    }

    /// Fault-model property: any single corrupted byte in a tag-routed
    /// frame is caught by the FCS — the justification for the emulator
    /// counting corruption as a drop at the receiving NIC.
    #[test]
    fn dumbnet_frame_one_byte_flip_rejected(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        pos in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let f = DumbNetFrame::encapsulate(
            MacAddr::for_host(3),
            MacAddr::for_host(9),
            path,
            0x0800,
            payload,
        );
        let mut wire = f.to_wire();
        let pos = usize::from(pos) % wire.len();
        wire[pos] ^= xor; // xor ≥ 1 ⇒ the byte really changed.
        prop_assert!(
            DumbNetFrame::from_wire(&wire).is_err(),
            "byte {} corrupted undetected", pos
        );
    }

    /// The MPLS encoding has no checksum, so the property is weaker but
    /// still sharp: a one-byte flip either fails to decode, or decodes
    /// to a *different* path, unless it only touched the non-semantic
    /// TC/TTL bits (which the port mapping ignores by design).
    #[test]
    fn mpls_one_byte_flip_rejected_or_visible(
        path in arb_path(),
        pos in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let stack = LabelStack::from_path(&path);
        let mut wire = stack.to_wire();
        let pos = usize::from(pos) % wire.len();
        wire[pos] ^= xor;
        // Entry layout: byte 0-1 label high, byte 2 = label low nibble |
        // TC | S bit, byte 3 = TTL. TTL and TC carry no routing meaning.
        let non_semantic = match pos % 4 {
            3 => true,                  // TTL byte.
            2 => xor & 0xF1 == 0,       // Only TC bits (3..=1) changed.
            _ => false,
        };
        let decoded = LabelStack::from_wire(&wire)
            .and_then(|(s, _)| s.to_path());
        match decoded {
            Err(_) => {}
            Ok(p) => prop_assert!(
                p != path || non_semantic,
                "semantic corruption at byte {} went unnoticed", pos
            ),
        }
    }

    /// A tag sequence with no ø terminator never parses: the kernel
    /// module cannot mistake a runaway header for a path.
    #[test]
    fn tag_wire_without_end_marker_rejected(
        body in proptest::collection::vec(0u8..=254, 0..80),
    ) {
        prop_assert!(Path::from_wire(&body).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Path-graph invariants (Algorithm 1) on random cube pairs:
    /// the primary is inside the subgraph; every cached detour vertex
    /// satisfies the ε bound for some window; the backup avoids primary
    /// links unless unavoidable; tag paths trace correctly.
    #[test]
    fn pathgraph_invariants(
        seed in 0u64..500,
        src in 0u64..27,
        dst in 0u64..27,
        eps in 0u64..4,
    ) {
        prop_assume!(src != dst);
        let g = generators::cube(&[3, 3, 3], 1, 8);
        let topo = &g.topology;
        let mut rng = StdRng::seed_from_u64(seed);
        let params = PathGraphParams { k: 4, s: 2, epsilon: eps };
        let pg = pathgraph::build(topo, HostId(src), HostId(dst), &params, &mut rng).unwrap();

        // Primary inside subgraph, link-exact.
        for w in pg.primary.switches().windows(2) {
            prop_assert!(pg.contains_edge(w[0], w[1]));
        }
        // Primary is genuinely shortest.
        let d = spath::distances(topo, topo.host(HostId(src)).unwrap().attached.switch).dist(topo.host(HostId(dst)).unwrap().attached.switch).unwrap();
        prop_assert_eq!(pg.primary.link_hops() as u64, d);

        // Tag path traces to the destination through the real fabric.
        let tags = pg.tag_path(&pg.primary).unwrap();
        let trace = trace_tag_path(topo, HostId(src), &tags).unwrap();
        prop_assert_eq!(trace.delivered_to, Some(HostId(dst)));

        // Backup (when present) reaches the destination and differs.
        if let Some(backup) = &pg.backup {
            prop_assert!(backup.is_valid_in(topo));
            prop_assert_ne!(backup.switches(), pg.primary.switches());
        }

        // k-shortest within the subgraph are simple, sorted, routable.
        let routes = pg.k_shortest_within(4, &HashSet::new());
        prop_assert!(!routes.is_empty());
        for w in routes.windows(2) {
            prop_assert!(w[0].link_hops() <= w[1].link_hops());
        }
        for r in &routes {
            prop_assert!(r.is_simple());
            let t = pg.tag_path(r).unwrap();
            let tr = trace_tag_path(topo, HostId(src), &t).unwrap();
            prop_assert_eq!(tr.delivered_to, Some(HostId(dst)));
        }
    }

    /// Yen's k-shortest agrees with Dijkstra on the shortest length and
    /// returns distinct simple routes.
    #[test]
    fn ksp_agrees_with_dijkstra(seed in 0u64..200, a in 0u64..20, b in 0u64..20) {
        prop_assume!(a != b);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(20, 3, 0, 6, &mut rng);
        let (sa, sb) = (SwitchId(a), SwitchId(b));
        let routes = k_shortest_routes(&g.topology, sa, sb, 5);
        match spath::distances(&g.topology, sa).dist(sb) {
            None => prop_assert!(routes.is_empty()),
            Some(d) => {
                prop_assert_eq!(routes[0].link_hops() as u64, d);
                let set: HashSet<Vec<SwitchId>> =
                    routes.iter().map(|r| r.switches().to_vec()).collect();
                prop_assert_eq!(set.len(), routes.len());
            }
        }
    }

    /// Flow-level simulation conserves work: each flow finishes no
    /// earlier than its ideal solo time, and exactly when predicted for
    /// equal shares.
    #[test]
    fn flowsim_conservation(
        n in 1usize..6,
        mbytes in 1u64..50,
    ) {
        let mut fs = FlowSim::new();
        let e = fs.add_edge(Bandwidth::gbps(1));
        let bytes = mbytes * 1_000_000;
        let flows: Vec<_> = (0..n).map(|_| fs.start_flow(vec![e], bytes)).collect();
        fs.run_until_idle();
        // All equal flows finish together at n × solo time.
        let solo = bytes as f64 * 8.0 / 1e9;
        let expect = solo * n as f64;
        for f in flows {
            let done = fs.finished_at(f).unwrap().as_secs_f64();
            prop_assert!((done - expect).abs() / expect < 1e-6,
                "finish {done} vs expected {expect}");
        }
        prop_assert_eq!(fs.now(), fs.now()); // Clock is stable post-idle.
        let _ = SimTime::ZERO;
    }
}

proptest! {
    /// Fuzzing the wire parser: arbitrary bytes either fail cleanly or
    /// parse into a path that re-serializes to exactly the bytes
    /// consumed.
    #[test]
    fn path_from_wire_is_total_and_consistent(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        match Path::from_wire(&bytes) {
            Ok((path, used)) => {
                prop_assert!(used <= bytes.len());
                let rewire = path.to_wire();
                prop_assert_eq!(rewire.as_slice(), &bytes[..used]);
            }
            Err(e) => {
                // Only the two documented failure modes.
                use dumbnet::types::DumbNetError;
                prop_assert!(matches!(
                    e,
                    DumbNetError::MissingEndMarker | DumbNetError::PathTooLong(_)
                ));
            }
        }
    }

    /// Ethernet parser fuzz: never panics, and accepts only frames whose
    /// FCS validates.
    #[test]
    fn ethernet_from_wire_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Ok(frame) = EthernetFrame::from_wire(&bytes) {
            prop_assert_eq!(frame.to_wire(), bytes);
        }
    }
}

#[test]
fn core_types_are_serializable() {
    // Deployment inventories (topologies, path graphs, packets) must be
    // storable/shippable: assert the serde bounds hold (compile-time)
    // and that structural identity survives cloning.
    fn assert_serializable<T: serde::Serialize + serde::de::DeserializeOwned>() {}
    assert_serializable::<dumbnet::topology::Topology>();
    assert_serializable::<dumbnet::topology::PathGraph>();
    assert_serializable::<dumbnet::packet::Packet>();
    let g = generators::testbed();
    let clone = g.topology.clone();
    assert!(clone.same_structure(&g.topology));
}
