//! MPLS encoding of DumbNet paths (§5.3).
//!
//! The commodity-switch deployment "implement\[s\] DumbNet in legacy
//! Ethernet switches using MPLS to emulate the push-label routing …
//! inserting static rules that statically map the MPLS labels to the
//! physical port numbers". Each routing tag becomes one 32-bit MPLS
//! label-stack entry whose label field *is* the port number; the S bit
//! marks the bottom of the stack (which plays the role of ø).
//!
//! Label-stack entry layout (RFC 3032):
//!
//! ```text
//! | label (20 bits) | TC (3 bits) | S (1 bit) | TTL (8 bits) |
//! ```

use serde::{Deserialize, Serialize};

use dumbnet_types::{DumbNetError, Path, Result, Tag};

/// One MPLS label-stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MplsLabel {
    /// 20-bit label value (DumbNet uses it to carry the port tag).
    pub label: u32,
    /// 3-bit traffic class.
    pub tc: u8,
    /// Bottom-of-stack flag.
    pub bottom: bool,
    /// Time to live.
    pub ttl: u8,
}

impl MplsLabel {
    /// Default TTL DumbNet stamps on labels; the fabric pops one label
    /// per hop so the TTL never actually decrements to zero in practice.
    pub const DEFAULT_TTL: u8 = 64;

    /// Encodes to the 4-byte wire form.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 4] {
        let word = (self.label & 0x000F_FFFF) << 12
            | u32::from(self.tc & 0x7) << 9
            | u32::from(self.bottom) << 8
            | u32::from(self.ttl);
        word.to_be_bytes()
    }

    /// Decodes from the 4-byte wire form.
    #[must_use]
    pub fn from_be_bytes(bytes: [u8; 4]) -> MplsLabel {
        let word = u32::from_be_bytes(bytes);
        MplsLabel {
            label: word >> 12,
            tc: ((word >> 9) & 0x7) as u8,
            bottom: (word >> 8) & 1 == 1,
            ttl: (word & 0xFF) as u8,
        }
    }
}

/// A full MPLS label stack representing a DumbNet path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelStack {
    /// Entries, top (first hop) first.
    pub labels: Vec<MplsLabel>,
}

impl LabelStack {
    /// Encodes a DumbNet path as a label stack: one label per tag, label
    /// value = tag byte, S bit on the last entry.
    ///
    /// An empty path produces a single "explicit ø" entry with label 0xFF
    /// and the S bit set, so the destination's agent always has one label
    /// to strip — exactly the role of ø in the native encoding.
    #[must_use]
    pub fn from_path(path: &Path) -> LabelStack {
        let mut labels: Vec<MplsLabel> = path
            .tags()
            .iter()
            .map(|t| MplsLabel {
                label: u32::from(t.byte()),
                tc: 0,
                bottom: false,
                ttl: MplsLabel::DEFAULT_TTL,
            })
            .collect();
        labels.push(MplsLabel {
            label: u32::from(Tag::END.byte()),
            tc: 0,
            bottom: true,
            ttl: MplsLabel::DEFAULT_TTL,
        });
        LabelStack { labels }
    }

    /// Decodes a label stack back into a DumbNet path.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::MalformedFrame`] if the stack is empty,
    /// the bottom label is not the ø sentinel, or any label exceeds the
    /// one-byte tag space; returns [`DumbNetError::MissingEndMarker`] if
    /// no entry has the S bit.
    pub fn to_path(&self) -> Result<Path> {
        let Some((last, init)) = self.labels.split_last() else {
            return Err(DumbNetError::MalformedFrame("empty label stack".into()));
        };
        if !last.bottom {
            return Err(DumbNetError::MissingEndMarker);
        }
        if last.label != u32::from(Tag::END.byte()) {
            return Err(DumbNetError::MalformedFrame(format!(
                "bottom label {:#x} is not the ø sentinel",
                last.label
            )));
        }
        if let Some(bad) = init.iter().find(|l| l.bottom) {
            return Err(DumbNetError::MalformedFrame(format!(
                "S bit set mid-stack on label {:#x}",
                bad.label
            )));
        }
        let tags = init
            .iter()
            .map(|l| {
                u8::try_from(l.label).map(Tag).map_err(|_| {
                    DumbNetError::MalformedFrame(format!("label {:#x} too large", l.label))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Path::from_tags(tags)
    }

    /// Serializes the stack to wire bytes.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        self.labels.iter().flat_map(|l| l.to_be_bytes()).collect()
    }

    /// Parses a stack from wire bytes, stopping after the bottom entry.
    /// Returns the stack and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::MissingEndMarker`] if the bytes run out
    /// before an S bit, and [`DumbNetError::MalformedFrame`] for lengths
    /// not a multiple of four.
    pub fn from_wire(bytes: &[u8]) -> Result<(LabelStack, usize)> {
        let mut labels = Vec::new();
        let mut offset = 0;
        loop {
            let Some(chunk) = bytes.get(offset..offset + 4) else {
                return if bytes.len() - offset == 0 {
                    Err(DumbNetError::MissingEndMarker)
                } else {
                    Err(DumbNetError::MalformedFrame(
                        "label stack length not a multiple of 4".into(),
                    ))
                };
            };
            let Ok(word) = <[u8; 4]>::try_from(chunk) else {
                return Err(DumbNetError::MalformedFrame(
                    "label stack length not a multiple of 4".into(),
                ));
            };
            let label = MplsLabel::from_be_bytes(word);
            let bottom = label.bottom;
            labels.push(label);
            offset += 4;
            if bottom {
                return Ok((LabelStack { labels }, offset));
            }
        }
    }

    /// Bytes this stack occupies on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.labels.len() * 4
    }

    /// The switch operation on the MPLS deployment: pop the top label.
    pub fn pop(&mut self) -> Option<MplsLabel> {
        if self.labels.is_empty() {
            None
        } else {
            Some(self.labels.remove(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_bitfield_round_trip() {
        let l = MplsLabel {
            label: 0xABCDE,
            tc: 5,
            bottom: true,
            ttl: 17,
        };
        assert_eq!(MplsLabel::from_be_bytes(l.to_be_bytes()), l);
    }

    #[test]
    fn path_round_trip_via_mpls() {
        let p = Path::from_ports([2, 3, 5]).unwrap();
        let stack = LabelStack::from_path(&p);
        assert_eq!(stack.labels.len(), 4); // 3 tags + ø sentinel.
        assert!(stack.labels[3].bottom);
        assert_eq!(stack.to_path().unwrap(), p);
    }

    #[test]
    fn wire_round_trip_with_trailing_bytes() {
        let p = Path::from_ports([9, 1]).unwrap();
        let mut wire = LabelStack::from_path(&p).to_wire();
        wire.extend_from_slice(&[0xDE, 0xAD]);
        let (stack, used) = LabelStack::from_wire(&wire).unwrap();
        assert_eq!(used, 12);
        assert_eq!(stack.to_path().unwrap(), p);
    }

    #[test]
    fn empty_path_is_single_sentinel() {
        let stack = LabelStack::from_path(&Path::empty());
        assert_eq!(stack.labels.len(), 1);
        assert!(stack.labels[0].bottom);
        assert_eq!(stack.to_path().unwrap(), Path::empty());
    }

    #[test]
    fn missing_bottom_detected() {
        let p = Path::from_ports([4]).unwrap();
        let mut stack = LabelStack::from_path(&p);
        stack.labels.last_mut().unwrap().bottom = false;
        assert!(matches!(
            stack.to_path(),
            Err(DumbNetError::MissingEndMarker)
        ));
        let wire = stack.to_wire();
        assert!(LabelStack::from_wire(&wire).is_err());
    }

    #[test]
    fn mid_stack_bottom_detected() {
        let p = Path::from_ports([4, 5]).unwrap();
        let mut stack = LabelStack::from_path(&p);
        stack.labels[0].bottom = true;
        // from_wire stops at the first S bit; to_path on the full stack
        // must reject.
        assert!(stack.to_path().is_err());
    }

    #[test]
    fn wrong_sentinel_detected() {
        let mut stack = LabelStack::from_path(&Path::empty());
        stack.labels[0].label = 0x12;
        assert!(matches!(
            stack.to_path(),
            Err(DumbNetError::MalformedFrame(_))
        ));
    }

    #[test]
    fn pop_consumes_top() {
        let p = Path::from_ports([7, 8]).unwrap();
        let mut stack = LabelStack::from_path(&p);
        assert_eq!(stack.pop().unwrap().label, 7);
        assert_eq!(stack.pop().unwrap().label, 8);
        let sentinel = stack.pop().unwrap();
        assert!(sentinel.bottom);
        assert!(stack.pop().is_none());
    }
}
