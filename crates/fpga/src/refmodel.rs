//! Reference interpreter of the two-stage pop/demux pipeline.
//!
//! The paper's entire safety argument rests on the switch doing exactly
//! one thing: *pop the head tag, demux to the egress port* (Figure 5's
//! pop-label stage feeding the output-demux stage). The emulator's
//! production path (`dumbnet_switch::DumbSwitch` plus the zero-copy
//! `Path` head cursor) has been rewritten twice for speed, and the
//! workspace maintains two independent tag encodings — the native
//! EtherType `0x9800` tag list and the MPLS label stack of the
//! commodity-switch deployment (§5.3). This module is the *oracle* the
//! fast paths are fuzzed against: a tiny interpreter written for
//! clarity, not speed, that consumes the literal bytes-on-wire, pops
//! one tag, recomputes the frame check sequence, and reports the egress
//! decision.
//!
//! Independence is the point. Nothing here calls into `dumbnet_packet`
//! (this crate does not even depend on it): the CRC-32 is a separate
//! table-driven implementation (the codec's is bitwise), the header
//! offsets are re-derived from the wire layout, and the tag scan is a
//! fresh reading of §5.1. A bug shared between the production codec and
//! this model would have to be introduced twice, independently.
//!
//! The differential harness (`dumbnet-bench`'s `figures dp_fuzz`) and the
//! in-switch shadow check (`DumbSwitchConfig::shadow_check`) both treat
//! *any* disagreement between this model and the production path — in
//! egress port, bytes-on-wire, FCS, or drop/accept decision — as a bug.

use std::fmt;

/// EtherType of native DumbNet tag-routed frames (§5.1).
pub const ETHERTYPE_DUMBNET: u16 = 0x9800;

/// EtherType of MPLS-unicast frames (the commodity deployment, §5.3).
pub const ETHERTYPE_MPLS: u16 = 0x8847;

/// The end-of-path marker ø (§3.2 fixes it at `0xFF`).
pub const TAG_END: u8 = 0xFF;

/// The switch-ID query tag (§4.1 fixes it at `0`).
pub const TAG_ID_QUERY: u8 = 0x00;

/// Ethernet header: destination MAC, source MAC, EtherType.
const ETH_HEADER: usize = 14;

/// Frame check sequence trailer length.
const FCS: usize = 4;

/// Longest legal tag list (64 tags + the ø terminator). Matches the
/// bound the host agent enforces at encode time; re-stated here rather
/// than imported so the two limits are independently maintained.
const MAX_TAGS: usize = 64;

/// Why the reference model refused or discarded a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefDrop {
    /// Fewer bytes than an Ethernet header plus FCS.
    Truncated,
    /// The FCS trailer does not match the CRC-32 of the body.
    BadFcs,
    /// Neither `0x9800` nor `0x8847`: not a tag-routed frame at all.
    ForeignEtherType,
    /// No ø (native) or no bottom-of-stack bit (MPLS) within the legal
    /// tag window.
    UnterminatedPath,
    /// The head position holds ø: the path was exhausted before this
    /// switch — only a host may consume ø (§3.2), a switch drops.
    PathExhausted,
    /// A label that cannot be a tag: MPLS label value above `0xFF`, or
    /// the ø byte appearing mid-path where only port/query tags may be.
    MalformedTag,
}

impl fmt::Display for RefDrop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefDrop::Truncated => "truncated frame",
            RefDrop::BadFcs => "FCS mismatch",
            RefDrop::ForeignEtherType => "foreign EtherType",
            RefDrop::UnterminatedPath => "unterminated tag list",
            RefDrop::PathExhausted => "path exhausted at a switch",
            RefDrop::MalformedTag => "malformed tag",
        };
        f.write_str(s)
    }
}

/// Which wire encoding the frame used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefEncoding {
    /// Native EtherType `0x9800` one-byte tag list.
    Native,
    /// MPLS label stack, one 4-byte entry per tag.
    Mpls,
}

/// The reference pipeline's verdict for one frame at one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefVerdict {
    /// Head tag was an output port: forward `frame` (head tag popped,
    /// FCS recomputed) out of `port`.
    Forward {
        /// Egress port the demux stage selected (`1..=254`).
        port: u8,
        /// The encoding the frame carried.
        encoding: RefEncoding,
        /// The frame as it leaves the switch: one tag shorter, fresh FCS.
        frame: Vec<u8>,
    },
    /// Head tag was the ID-query marker `0`: the switch answers with its
    /// factory ID along the remaining tags (§4.1). `remaining_tags` is
    /// what the reply would be routed by.
    IdQuery {
        /// The encoding the frame carried.
        encoding: RefEncoding,
        /// Tag bytes left after consuming the query marker (ø excluded).
        remaining_tags: Vec<u8>,
    },
    /// The frame was refused (parse failure) or discarded (semantics).
    Drop(RefDrop),
}

impl RefVerdict {
    /// Whether the frame survived *parsing* (a [`RefDrop::PathExhausted`]
    /// drop is a semantic decision about a well-formed frame; the other
    /// drops are parse rejections).
    #[must_use]
    pub fn parsed(&self) -> bool {
        !matches!(
            self,
            RefVerdict::Drop(
                RefDrop::Truncated
                    | RefDrop::BadFcs
                    | RefDrop::ForeignEtherType
                    | RefDrop::UnterminatedPath
                    | RefDrop::MalformedTag
            )
        )
    }
}

/// IEEE 802.3 CRC-32, table-driven (reflected, polynomial `0xEDB88320`).
///
/// Deliberately a different construction from the codec's bitwise loop:
/// the two implementations cross-check each other in the differential
/// harness.
#[must_use]
pub fn crc32_ref(data: &[u8]) -> u32 {
    const fn build_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut n = 0;
        while n < 256 {
            let mut c = n as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[n] = c;
            n += 1;
        }
        table
    }
    const TABLE: [u32; 256] = build_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = TABLE[usize::from((crc ^ u32::from(b)) as u8)] ^ (crc >> 8);
    }
    !crc
}

/// Runs one frame through the reference pipeline: validate, pop the
/// head tag, recompute the FCS, decide the egress.
///
/// Stage 0 (parser): length and FCS checks, EtherType classification.
/// Stage 1 (pop): remove the head tag from the tag area.
/// Stage 2 (demux): map the popped tag to an egress port, an ID-query
/// reply, or a drop.
#[must_use]
pub fn step(frame: &[u8]) -> RefVerdict {
    // Stage 0a: a frame is at least header + FCS; the tag area adds more
    // but its minimum depends on the encoding.
    if frame.len() < ETH_HEADER + FCS {
        return RefVerdict::Drop(RefDrop::Truncated);
    }
    // Stage 0b: FCS over everything before the 4-byte trailer.
    let body = &frame[..frame.len() - FCS];
    let carried = u32::from_be_bytes([
        frame[frame.len() - 4],
        frame[frame.len() - 3],
        frame[frame.len() - 2],
        frame[frame.len() - 1],
    ]);
    if crc32_ref(body) != carried {
        return RefVerdict::Drop(RefDrop::BadFcs);
    }
    // Stage 0c: EtherType selects the tag decoding.
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    let tag_area = &body[ETH_HEADER..];
    match ethertype {
        ETHERTYPE_DUMBNET => step_native(frame, tag_area),
        ETHERTYPE_MPLS => step_mpls(frame, tag_area),
        _ => RefVerdict::Drop(RefDrop::ForeignEtherType),
    }
}

/// Native encoding: tag bytes terminated by ø, then the inner payload.
fn step_native(frame: &[u8], tag_area: &[u8]) -> RefVerdict {
    // The ø terminator must appear within the legal window: MAX_TAGS
    // tags plus the terminator itself.
    let window = &tag_area[..tag_area.len().min(MAX_TAGS + 1)];
    let Some(end) = window.iter().position(|&b| b == TAG_END) else {
        return RefVerdict::Drop(RefDrop::UnterminatedPath);
    };
    if end == 0 {
        // The head position is already ø: exhausted path at a switch.
        return RefVerdict::Drop(RefDrop::PathExhausted);
    }
    let head = tag_area[0];
    if head == TAG_ID_QUERY {
        return RefVerdict::IdQuery {
            encoding: RefEncoding::Native,
            remaining_tags: tag_area[1..end].to_vec(),
        };
    }
    // 1..=254 by elimination: not 0 (query), not 0xFF (ø is at `end`).
    let mut out = Vec::with_capacity(frame.len() - 1);
    out.extend_from_slice(&frame[..ETH_HEADER]);
    out.extend_from_slice(&tag_area[1..]);
    let fcs = crc32_ref(&out);
    out.extend_from_slice(&fcs.to_be_bytes());
    RefVerdict::Forward {
        port: head,
        encoding: RefEncoding::Native,
        frame: out,
    }
}

/// MPLS encoding: 4-byte label-stack entries, S bit marks the bottom
/// entry, whose label is the explicit ø sentinel (`0xFF`).
fn step_mpls(frame: &[u8], tag_area: &[u8]) -> RefVerdict {
    // Find the bottom of the stack within the legal window.
    let mut depth = 0usize;
    let bottom_ix = loop {
        if depth > MAX_TAGS {
            return RefVerdict::Drop(RefDrop::UnterminatedPath);
        }
        let at = depth * 4;
        let Some(entry) = tag_area.get(at..at + 4) else {
            return RefVerdict::Drop(RefDrop::UnterminatedPath);
        };
        // S bit: bit 0 of the third byte (RFC 3032 layout).
        if entry[2] & 0x01 == 0x01 {
            break depth;
        }
        depth += 1;
    };
    let label_of = |ix: usize| -> u32 {
        let e = &tag_area[ix * 4..ix * 4 + 4];
        (u32::from(e[0]) << 12) | (u32::from(e[1]) << 4) | (u32::from(e[2]) >> 4)
    };
    // The bottom entry plays the role of ø and must carry the sentinel.
    if label_of(bottom_ix) != u32::from(TAG_END) {
        return RefVerdict::Drop(RefDrop::MalformedTag);
    }
    if bottom_ix == 0 {
        // Only the sentinel remains: exhausted path at a switch.
        return RefVerdict::Drop(RefDrop::PathExhausted);
    }
    let head = label_of(0);
    if head > 0xFE {
        // Above the one-byte tag space, or the ø byte mid-stack.
        return RefVerdict::Drop(RefDrop::MalformedTag);
    }
    let remaining = |from_entry: usize| -> Vec<u8> {
        (from_entry..bottom_ix)
            .map(|ix| (label_of(ix) & 0xFF) as u8)
            .collect()
    };
    if head == u32::from(TAG_ID_QUERY) {
        return RefVerdict::IdQuery {
            encoding: RefEncoding::Mpls,
            remaining_tags: remaining(1),
        };
    }
    // Pop: the top 4-byte entry disappears; everything after the stack
    // (payload) is untouched; the FCS is recomputed.
    let mut out = Vec::with_capacity(frame.len() - 4);
    out.extend_from_slice(&frame[..ETH_HEADER]);
    out.extend_from_slice(&tag_area[4..]);
    let fcs = crc32_ref(&out);
    out.extend_from_slice(&fcs.to_be_bytes());
    RefVerdict::Forward {
        port: (head & 0xFF) as u8,
        encoding: RefEncoding::Mpls,
        frame: out,
    }
}

/// Runs a frame through the pipeline hop by hop until it is dropped or
/// its path is exhausted; returns the sequence of egress ports taken.
/// This is what a whole fabric of dumb switches does to a frame, minus
/// the wires — used by tests to compare multi-hop behaviour.
#[must_use]
pub fn walk(mut frame: Vec<u8>) -> (Vec<u8>, RefVerdict) {
    let mut ports = Vec::new();
    loop {
        match step(&frame) {
            RefVerdict::Forward {
                port,
                frame: next,
                encoding,
            } => {
                ports.push(port);
                if ports.len() > MAX_TAGS {
                    // Defensive: a cycle is impossible (each hop shrinks
                    // the frame) but keep the walk visibly bounded.
                    return (
                        ports,
                        RefVerdict::Forward {
                            port,
                            encoding,
                            frame: next,
                        },
                    );
                }
                frame = next;
            }
            verdict => return (ports, verdict),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a native frame: 14-byte header, tags, ø, payload, FCS.
    fn native_frame(tags: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 5]); // dst
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 4]); // src
        f.extend_from_slice(&ETHERTYPE_DUMBNET.to_be_bytes());
        f.extend_from_slice(tags);
        f.push(TAG_END);
        f.extend_from_slice(payload);
        let fcs = crc32_ref(&f);
        f.extend_from_slice(&fcs.to_be_bytes());
        f
    }

    /// Hand-builds an MPLS frame with the explicit ø bottom entry.
    fn mpls_frame(tags: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 5]);
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 4]);
        f.extend_from_slice(&ETHERTYPE_MPLS.to_be_bytes());
        let entry = |label: u32, s: bool| -> [u8; 4] {
            let word = (label & 0x000F_FFFF) << 12 | u32::from(s) << 8 | 64;
            word.to_be_bytes()
        };
        for &t in tags {
            f.extend_from_slice(&entry(u32::from(t), false));
        }
        f.extend_from_slice(&entry(u32::from(TAG_END), true));
        f.extend_from_slice(payload);
        let fcs = crc32_ref(&f);
        f.extend_from_slice(&fcs.to_be_bytes());
        f
    }

    #[test]
    fn crc_matches_standard_check_value() {
        assert_eq!(crc32_ref(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ref(b""), 0);
    }

    #[test]
    fn paper_example_walks_2_3_5() {
        // §3.2: H4→H5 takes ports 2, 3, 5 and arrives with ø only.
        let f = native_frame(&[2, 3, 5], b"data");
        let (ports, last) = walk(f);
        assert_eq!(ports, vec![2, 3, 5]);
        assert_eq!(last, RefVerdict::Drop(RefDrop::PathExhausted));
    }

    #[test]
    fn mpls_walk_matches_native_walk() {
        let tags = [7u8, 1, 254];
        let (np, _) = walk(native_frame(&tags, b"x"));
        let (mp, _) = walk(mpls_frame(&tags, b"x"));
        assert_eq!(np, mp);
    }

    #[test]
    fn forward_output_has_valid_fcs_and_one_less_tag() {
        let f = native_frame(&[9, 8], b"payload");
        let RefVerdict::Forward { port, frame, .. } = step(&f) else {
            panic!("expected forward");
        };
        assert_eq!(port, 9);
        assert_eq!(frame.len(), f.len() - 1);
        // The emitted frame is itself valid: the next hop accepts it.
        let RefVerdict::Forward { port: p2, .. } = step(&frame) else {
            panic!("second hop must forward too");
        };
        assert_eq!(p2, 8);
    }

    #[test]
    fn id_query_consumes_marker_and_keeps_rest() {
        let f = native_frame(&[0, 9], b"probe");
        match step(&f) {
            RefVerdict::IdQuery { remaining_tags, .. } => {
                assert_eq!(remaining_tags, vec![9]);
            }
            other => panic!("expected IdQuery, got {other:?}"),
        }
    }

    #[test]
    fn empty_path_dropped_as_exhausted_both_encodings() {
        assert_eq!(
            step(&native_frame(&[], b"p")),
            RefVerdict::Drop(RefDrop::PathExhausted)
        );
        assert_eq!(
            step(&mpls_frame(&[], b"p")),
            RefVerdict::Drop(RefDrop::PathExhausted)
        );
    }

    #[test]
    fn bit_flip_anywhere_fails_fcs() {
        let f = native_frame(&[3, 4], b"abcdef");
        for byte in 0..f.len() - FCS {
            let mut m = f.clone();
            m[byte] ^= 0x10;
            assert_eq!(
                step(&m),
                RefVerdict::Drop(RefDrop::BadFcs),
                "flip at byte {byte} escaped the FCS"
            );
        }
    }

    #[test]
    fn truncated_and_foreign_frames_rejected() {
        assert_eq!(step(&[0u8; 10]), RefVerdict::Drop(RefDrop::Truncated));
        let mut f = Vec::new();
        f.extend_from_slice(&[0u8; 12]);
        f.extend_from_slice(&0x0800u16.to_be_bytes()); // IPv4, not tags.
        f.extend_from_slice(b"ip payload");
        let fcs = crc32_ref(&f);
        f.extend_from_slice(&fcs.to_be_bytes());
        assert_eq!(step(&f), RefVerdict::Drop(RefDrop::ForeignEtherType));
    }

    #[test]
    fn unterminated_tag_list_rejected() {
        // 70 port tags and no ø inside the 65-byte window.
        let mut f = Vec::new();
        f.extend_from_slice(&[0u8; 12]);
        f.extend_from_slice(&ETHERTYPE_DUMBNET.to_be_bytes());
        f.extend_from_slice(&[1u8; 70]);
        let fcs = crc32_ref(&f);
        f.extend_from_slice(&fcs.to_be_bytes());
        assert_eq!(step(&f), RefVerdict::Drop(RefDrop::UnterminatedPath));
    }

    #[test]
    fn mpls_bad_sentinel_and_oversized_label_rejected() {
        // Bottom entry with S bit but a non-ø label.
        let mut f = Vec::new();
        f.extend_from_slice(&[0u8; 12]);
        f.extend_from_slice(&ETHERTYPE_MPLS.to_be_bytes());
        let word: u32 = (0x12 << 12) | (1 << 8) | 64; // label 0x12, S=1.
        f.extend_from_slice(&word.to_be_bytes());
        let fcs = crc32_ref(&f);
        f.extend_from_slice(&fcs.to_be_bytes());
        assert_eq!(step(&f), RefVerdict::Drop(RefDrop::MalformedTag));

        // Top label above the one-byte tag space.
        let mut g = Vec::new();
        g.extend_from_slice(&[0u8; 12]);
        g.extend_from_slice(&ETHERTYPE_MPLS.to_be_bytes());
        let top: u32 = (0x300 << 12) | 64; // label 0x300 > 0xFE.
        g.extend_from_slice(&top.to_be_bytes());
        let bottom: u32 = (0xFF << 12) | (1 << 8) | 64;
        g.extend_from_slice(&bottom.to_be_bytes());
        let fcs = crc32_ref(&g);
        g.extend_from_slice(&fcs.to_be_bytes());
        assert_eq!(step(&g), RefVerdict::Drop(RefDrop::MalformedTag));
    }

    #[test]
    fn parsed_classification() {
        assert!(step(&native_frame(&[], b"p")).parsed());
        assert!(step(&native_frame(&[5], b"p")).parsed());
        assert!(!step(&[0u8; 3]).parsed());
    }
}
