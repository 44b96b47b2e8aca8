//! Differential data-plane properties (DESIGN.md §8): the reference
//! pop/demux interpreter, the production codecs, and the production
//! switch must agree on every frame — in egress port, bytes-on-wire,
//! FCS, and drop/accept decision. These are the always-on slice of the
//! `figures dp_fuzz` gate, small enough for `cargo test`.

use proptest::prelude::*;

use dumbnet::fpga::refmodel::{self, RefDrop, RefVerdict};
use dumbnet::host::agent::AppAction;
use dumbnet::host::HostAgent;
use dumbnet::packet::{crc32, DumbNetFrame, EthernetFrame, LabelStack, Packet, ETHERTYPE_IPV4};
use dumbnet::sim::{Ctx, Engine, LinkParams, Node, World};
use dumbnet::switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet::topology::generators;
use dumbnet::types::{HostId, MacAddr, Path, PortNo, SimDuration, SimTime, SwitchId, Tag};

/// Strategy: a valid tag path (port tags, occasionally an ID query).
fn arb_path() -> impl Strategy<Value = Path> {
    proptest::collection::vec(prop_oneof![9 => 1u8..=254, 1 => Just(0u8)], 0..24).prop_map(
        |bytes| Path::from_tags(bytes.into_iter().map(Tag)).expect("all values valid in paths"),
    )
}

fn native_wire(path: &Path, payload: Vec<u8>) -> Vec<u8> {
    DumbNetFrame::encapsulate(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        path.clone(),
        ETHERTYPE_IPV4,
        payload,
    )
    .to_wire()
}

fn mpls_wire(path: &Path, payload: &[u8]) -> Vec<u8> {
    let mut body = LabelStack::from_path(path).to_wire();
    body.extend_from_slice(payload);
    EthernetFrame::new(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        dumbnet::packet::ETHERTYPE_MPLS,
        body,
    )
    .to_wire()
}

proptest! {
    /// The two independent CRC-32 implementations (the reference model's
    /// table-driven one, the codec's bitwise one) agree on arbitrary
    /// input — and on the published check value.
    #[test]
    fn crc_implementations_agree(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(refmodel::crc32_ref(&data), crc32(&data));
        prop_assert_eq!(refmodel::crc32_ref(b"123456789"), 0xCBF4_3926u32);
    }

    /// The reference walk traverses exactly the path's port tags up to
    /// the first ID-query marker, then stops with the matching verdict.
    #[test]
    fn reference_walk_matches_path_prefix(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let tags: Vec<u8> = path.tags().iter().map(|t| t.byte()).collect();
        let split = tags.iter().position(|&t| t == 0).unwrap_or(tags.len());
        let (ports, verdict) = refmodel::walk(native_wire(&path, payload));
        prop_assert_eq!(&ports[..], &tags[..split]);
        match verdict {
            RefVerdict::IdQuery { remaining_tags, .. } => {
                prop_assert!(split < tags.len());
                prop_assert_eq!(&remaining_tags[..], &tags[split + 1..]);
            }
            RefVerdict::Drop(RefDrop::PathExhausted) => prop_assert_eq!(split, tags.len()),
            other => {
                return Err(TestCaseError::fail(format!(
                    "walk of a well-formed frame ended in {other:?}"
                )));
            }
        }
    }

    /// Both encodings of the same path walk the same port sequence and
    /// end in the same verdict class.
    #[test]
    fn native_and_mpls_walks_agree(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (np, nv) = refmodel::walk(native_wire(&path, payload.clone()));
        let (mp, mv) = refmodel::walk(mpls_wire(&path, &payload));
        prop_assert_eq!(np, mp);
        match (nv, mv) {
            (RefVerdict::Drop(a), RefVerdict::Drop(b)) => prop_assert_eq!(a, b),
            (
                RefVerdict::IdQuery { remaining_tags: a, .. },
                RefVerdict::IdQuery { remaining_tags: b, .. },
            ) => prop_assert_eq!(a, b),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "verdict classes diverge: native {a:?}, MPLS {b:?}"
                )));
            }
        }
    }

    /// Hop by hop, the production codec pops the same tag the reference
    /// interpreter demuxes on, and re-serializes to the exact bytes the
    /// reference emits (FCS included).
    #[test]
    fn codec_hops_match_reference_bytes(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = native_wire(&path, payload);
        loop {
            match refmodel::step(&wire) {
                RefVerdict::Forward { port, frame, .. } => {
                    let mut nf = DumbNetFrame::from_wire(&wire).expect("codec parses");
                    let popped = nf.pop_tag().expect("codec pops a tag");
                    prop_assert_eq!(popped.byte(), port, "popped tag vs demuxed port");
                    prop_assert_eq!(
                        nf.to_wire(), frame.clone(),
                        "codec bytes-on-wire differ from reference after pop"
                    );
                    wire = frame;
                }
                RefVerdict::IdQuery { .. } => {
                    let mut nf = DumbNetFrame::from_wire(&wire).expect("codec parses");
                    prop_assert_eq!(nf.pop_tag().map(|t| t.byte()), Some(0));
                    break;
                }
                RefVerdict::Drop(RefDrop::PathExhausted) => {
                    let mut nf = DumbNetFrame::from_wire(&wire).expect("codec parses");
                    prop_assert_eq!(nf.pop_tag(), None);
                    break;
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "reference dropped a codec-built frame: {other:?}"
                    )));
                }
            }
        }
    }

    /// Corruption is rejected identically: a single flipped bit fails the
    /// FCS on both the reference side and the codec side, for both
    /// encodings.
    #[test]
    fn bit_flips_rejected_by_both_sides(
        path in arb_path(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flip in any::<u32>(),
    ) {
        for wire in [native_wire(&path, payload.clone()), mpls_wire(&path, &payload)] {
            let mut bad = wire.clone();
            let bit = (flip as usize) % (bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(
                refmodel::step(&bad),
                RefVerdict::Drop(RefDrop::BadFcs),
                "reference accepted a flipped bit {}", bit
            );
            prop_assert!(
                EthernetFrame::from_wire(&bad).is_err(),
                "codec accepted a flipped bit {}", bit
            );
        }
    }
}

/// Packet sink for the single-switch world oracle.
struct Sink {
    got: Vec<Packet>,
}

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortNo, pkt: Packet) {
        self.got.push(pkt);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The production switch in a real world, with the in-switch shadow
    /// check on, never diverges from the reference model — and its
    /// counter deltas match what the reference pipeline predicts.
    #[test]
    fn world_switch_agrees_with_reference(
        path in arb_path(),
        payload_bytes in 0usize..256,
    ) {
        const PORTS: u8 = 8;
        let mut w = World::new(7);
        let sw = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(1),
            PORTS,
            DumbSwitchConfig { shadow_check: true, ..DumbSwitchConfig::default() },
        )));
        let sinks: Vec<_> = (1..=PORTS)
            .map(|port| {
                let s = w.add_node(Box::new(Sink { got: Vec::new() }));
                let (Some(sp), Some(one)) = (PortNo::new(port), PortNo::new(1)) else {
                    unreachable!("ports 1..=8 are valid");
                };
                w.wire(sw, sp, s, one, LinkParams::ten_gig()).expect("world wiring");
                s
            })
            .collect();
        let dst = MacAddr::for_host(2);
        let src = MacAddr::for_host(1);
        let pkt = Packet::data(dst, src, path.clone(), 7, 1, payload_bytes);
        let ingress = PortNo::new(1).expect("port 1 is valid");
        w.inject(SimTime::ZERO, sw, ingress, pkt);
        w.run_to_idle(10_000);
        let stats = w.node::<DumbSwitch>(sw).expect("switch lives").stats();
        prop_assert_eq!(stats.ref_divergence, 0, "in-switch shadow check tripped");
        prop_assert_eq!(stats.dropped_malformed, 0, "well-formed frame counted malformed");

        // Expected counter deltas, stepping the reference model through
        // the switch's ID-reply recursion (each query consumes a tag and
        // re-enters; a forward leaves the switch).
        let (mut want_fwd, mut want_idq, mut want_exh) = (0u64, 0u64, 0u64);
        let mut tags: Vec<u8> = path.tags().iter().map(|t| t.byte()).collect();
        let mut egress = None;
        loop {
            let p = Path::from_tags(tags.iter().map(|&b| Tag(b))).expect("tags stay valid");
            match refmodel::step(&native_wire(&p, Vec::new())) {
                RefVerdict::Forward { port, .. } => {
                    want_fwd += 1;
                    egress = Some(port);
                    break;
                }
                RefVerdict::IdQuery { remaining_tags, .. } => {
                    want_idq += 1;
                    tags = remaining_tags;
                }
                RefVerdict::Drop(RefDrop::PathExhausted) => {
                    want_exh += 1;
                    break;
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "reference rejected a well-formed frame: {other:?}"
                    )));
                }
            }
        }
        prop_assert_eq!(
            (stats.forwarded, stats.id_replies, stats.dropped_exhausted),
            (want_fwd, want_idq, want_exh),
            "production counters disagree with the reference pipeline"
        );
        if let Some(port) = egress.filter(|&p| (1..=PORTS).contains(&p)) {
            let sink = w.node::<Sink>(sinks[usize::from(port) - 1]).expect("sink lives");
            prop_assert_eq!(sink.got.len(), 1, "reference egress {} saw no delivery", port);
        }
    }
}

/// A whole testbed fabric carrying real traffic with the shadow check on
/// satisfies invariant 8: zero data-plane divergence from the reference
/// model, on every switch.
#[test]
fn testbed_fabric_has_data_plane_fidelity() {
    use dumbnet::fabric::{check_invariants, Fabric, FabricConfig};
    let g = generators::testbed();
    let cfg = FabricConfig {
        switch: DumbSwitchConfig {
            shadow_check: true,
            ..DumbSwitchConfig::default()
        },
        ..FabricConfig::default()
    };
    let mut fabric = Fabric::build_with(g.topology, cfg, |id, mut hcfg| {
        if id == HostId(1) {
            hcfg.actions = vec![AppAction::DataStream {
                at: SimDuration::from_millis(10),
                dst: MacAddr::for_host(26),
                flow: 4,
                packets: 200,
                bytes: 400,
                interval: SimDuration::from_micros(500),
            }];
        }
        HostAgent::new(id, hcfg)
    })
    .expect("testbed builds");
    fabric.run_until(SimTime::ZERO + SimDuration::from_millis(300));
    let rx = fabric.host(HostId(26)).expect("receiver exists");
    let &(pkts, _) = rx.stats().delivered.get(&4).expect("stream delivered");
    assert!(pkts > 0, "no traffic crossed the fabric");
    let report = check_invariants(&fabric);
    assert!(
        report.dataplane_ok(),
        "shadow check found divergence: {:?} (switch id, count)",
        report.dataplane_divergence
    );
}

/// The decode/forward paths of the switch and the host datapath must
/// turn every malformed input into a *counted drop*, never a panic: no
/// `unwrap`/`expect` outside `#[cfg(test)]` code.
#[test]
fn no_unwrap_on_decode_forward_paths() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(root.join("crates/switch/src"))
        .expect("switch sources present")
        .filter_map(|e| {
            let p = e.expect("readable dir entry").path();
            (p.extension().is_some_and(|x| x == "rs")).then_some(p)
        })
        .collect();
    files.push(root.join("crates/host/src/datapath.rs"));
    files.sort();
    assert!(
        files.len() >= 3,
        "expected switch sources plus the datapath"
    );
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source readable");
        let production: String = text
            .lines()
            .take_while(|l| !l.contains("#[cfg(test)]"))
            .collect::<Vec<_>>()
            .join("\n");
        for needle in [".unwrap()", ".expect("] {
            assert!(
                !production.contains(needle),
                "{} contains `{}` on the decode/forward path — malformed \
                 input must become a counted drop, not a panic",
                file.display(),
                needle
            );
        }
    }
}
