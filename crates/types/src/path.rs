//! Tag-sequence paths.
//!
//! A [`Path`] is the host-chosen route of a packet: one output-port tag per
//! switch hop, *not* including the trailing ø marker (the codec appends it
//! on the wire). The paper writes a path like `2-3-5-ø`; here that is
//! `Path::from_ports([2, 3, 5])` and the ø appears only in the serialized
//! header.

use crate::error::DumbNetError;
use crate::ids::PortNo;
use crate::tag::Tag;

/// Semantic capacity; re-exported as [`Path::MAX_LEN`].
const MAX: usize = 64;

/// Inline small-buffer capacity. 22 one-byte tags keep the whole `Path`
/// at 32 bytes (the size of the spilled variant's `Vec` plus cursor),
/// and no practical topology needs more: a fat-tree traversal plus the
/// discovery framing tags stays under a dozen. Longer paths — legal up
/// to [`Path::MAX_LEN`] — spill to the heap.
const INLINE: usize = 22;

/// Backing store: a small inline buffer for the common case, a heap
/// vector for the rare long path. Both keep a head cursor so the
/// per-hop pop is an increment, never a shift or reallocation.
#[derive(Clone)]
enum Repr {
    Inline {
        tags: [Tag; INLINE],
        /// Number of initialized entries in `tags`.
        len: u8,
        /// Index of the first not-yet-consumed tag.
        head: u8,
    },
    Spill {
        tags: Vec<Tag>,
        /// Index of the first not-yet-consumed tag.
        head: u8,
    },
}

/// An ordered sequence of routing tags describing a route through the
/// fabric.
///
/// Besides plain port tags, a path may contain [`Tag::ID_QUERY`] entries —
/// topology-discovery probes insert them to ask a mid-path switch for its
/// identity (§4.1).
///
/// Internally the tags live in a 22-byte inline buffer with a head
/// cursor: [`Path::pop_front`] (the per-hop operation every switch
/// performs) advances the cursor, so a packet crosses the whole fabric
/// on the buffer it was sent with, and building, cloning, or reversing
/// a practical path never touches the allocator. Paths longer than the
/// inline buffer — up to [`Path::MAX_LEN`] — transparently spill to a
/// heap vector. The inline capacity is deliberately small: a `Path` is
/// embedded in every packet and every packet is copied through the
/// event queue's slab twice per hop, so path bytes are the simulator's
/// single largest memcpy bill. Every observable view — length,
/// equality, hashing, display, iteration, the wire encoding — covers
/// only the remaining tags and never betrays the representation.
///
/// # Examples
///
/// ```
/// use dumbnet_types::{Path, Tag};
///
/// // The H4→H5 example from §3.2 of the paper: ports 2, 3, 5.
/// let mut path = Path::from_ports([2, 3, 5]).unwrap();
/// assert_eq!(path.len(), 3);
/// assert_eq!(path.to_string(), "2-3-5-ø");
///
/// assert_eq!(path.pop_front(), Some(Tag(2)));
/// assert_eq!(path.to_string(), "3-5-ø");
/// ```
#[derive(Clone)]
pub struct Path {
    repr: Repr,
}

impl Default for Path {
    fn default() -> Path {
        Path::empty()
    }
}

impl Path {
    /// Maximum number of tags a path may carry.
    ///
    /// The Ethernet-compatible header leaves room for 64 one-byte tags
    /// (more than four times the diameter of any practical DCN topology);
    /// the MPLS encoding is the binding constraint in practice and also
    /// fits 64 labels within a 1450-byte MTU reservation.
    pub const MAX_LEN: usize = MAX;

    /// The empty path (source and destination on the same switch port —
    /// only meaningful for loopback probes).
    #[must_use]
    pub fn empty() -> Path {
        Path {
            repr: Repr::Inline {
                tags: [Tag(0); INLINE],
                len: 0,
                head: 0,
            },
        }
    }

    /// Builds a path from a validated slice (caller guarantees the
    /// length bound; tags are assumed routable).
    fn from_slice(tags: &[Tag]) -> Path {
        debug_assert!(tags.len() <= MAX);
        if tags.len() <= INLINE {
            let mut buf = [Tag(0); INLINE];
            buf[..tags.len()].copy_from_slice(tags);
            Path {
                repr: Repr::Inline {
                    tags: buf,
                    len: tags.len() as u8,
                    head: 0,
                },
            }
        } else {
            Path {
                repr: Repr::Spill {
                    tags: tags.to_vec(),
                    head: 0,
                },
            }
        }
    }

    /// Builds a path from raw tag values.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::PathTooLong`] if more than
    /// [`Path::MAX_LEN`] tags are supplied, and
    /// [`DumbNetError::InvalidTagInPath`] if any value is the ø marker
    /// (ø is a framing detail, not a routable tag).
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Path, DumbNetError> {
        let mut path = Path::empty();
        let mut iter = tags.into_iter();
        for tag in iter.by_ref() {
            if tag.is_end() {
                return Err(DumbNetError::InvalidTagInPath(tag.byte()));
            }
            match &mut path.repr {
                Repr::Inline { tags, len, .. } if (*len as usize) < INLINE => {
                    tags[*len as usize] = tag;
                    *len += 1;
                }
                Repr::Inline { tags, .. } => {
                    // Inline buffer exhausted mid-build: spill and keep
                    // going (the path is still legal up to MAX).
                    let mut spilled = Vec::with_capacity(MAX);
                    spilled.extend_from_slice(&tags[..INLINE]);
                    spilled.push(tag);
                    path.repr = Repr::Spill {
                        tags: spilled,
                        head: 0,
                    };
                }
                Repr::Spill { tags, .. } => {
                    if tags.len() == MAX {
                        // Report the full supplied length, like the old
                        // collect-then-check implementation did.
                        return Err(DumbNetError::PathTooLong(MAX + 1 + iter.count()));
                    }
                    tags.push(tag);
                }
            }
        }
        Ok(path)
    }

    /// Builds a path of plain output-port tags.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::InvalidPort`] for port values `0` or `255`,
    /// or [`DumbNetError::PathTooLong`] for oversized paths.
    pub fn from_ports<I: IntoIterator<Item = u8>>(ports: I) -> Result<Path, DumbNetError> {
        let mut checked = Ok(());
        let path = Path::from_tags(ports.into_iter().map_while(|p| match Tag::port(p) {
            Ok(t) => Some(t),
            Err(e) => {
                checked = Err(e);
                None
            }
        }));
        checked?;
        path
    }

    /// Builds a path from validated port numbers (infallible except for
    /// length).
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::PathTooLong`] for oversized paths.
    pub fn from_port_nos<I: IntoIterator<Item = PortNo>>(ports: I) -> Result<Path, DumbNetError> {
        Path::from_tags(ports.into_iter().map(Tag::from_port))
    }

    /// Number of (remaining) tags in the path.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, head, .. } => usize::from(len - head),
            Repr::Spill { tags, head } => tags.len() - usize::from(*head),
        }
    }

    /// Returns `true` when no tags remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining tags, in forwarding order.
    #[must_use]
    pub fn tags(&self) -> &[Tag] {
        match &self.repr {
            Repr::Inline { tags, len, head } => &tags[usize::from(*head)..usize::from(*len)],
            Repr::Spill { tags, head } => &tags[usize::from(*head)..],
        }
    }

    /// Consumes and returns the first tag, advancing the head cursor —
    /// the per-hop operation of a dumb switch. O(1), no copying.
    pub fn pop_front(&mut self) -> Option<Tag> {
        match &mut self.repr {
            Repr::Inline { tags, len, head } => {
                if head >= len {
                    return None;
                }
                let tag = tags[usize::from(*head)];
                *head += 1;
                Some(tag)
            }
            Repr::Spill { tags, head } => {
                let tag = *tags.get(usize::from(*head))?;
                *head += 1;
                Some(tag)
            }
        }
    }

    /// First tag plus the remainder of the path, as a switch sees it.
    ///
    /// Prefer [`Path::pop_front`] on owned paths; this copies the
    /// remainder for callers that must keep the original intact.
    #[must_use]
    pub fn split_first(&self) -> Option<(Tag, Path)> {
        let (&head, rest) = self.tags().split_first()?;
        Some((head, Path::from_slice(rest)))
    }

    /// Appends a tag, consuming and returning the path (builder style).
    ///
    /// # Errors
    ///
    /// Same as [`Path::from_tags`].
    pub fn push(mut self, tag: Tag) -> Result<Path, DumbNetError> {
        if tag.is_end() {
            return Err(DumbNetError::InvalidTagInPath(tag.byte()));
        }
        if self.len() >= MAX {
            return Err(DumbNetError::PathTooLong(self.len() + 1));
        }
        match &mut self.repr {
            Repr::Inline { tags, len, head } => {
                if (usize::from(*len)) == INLINE && *head > 0 {
                    // The buffer is full but the head cursor has
                    // advanced: compact the live view to make room.
                    tags.copy_within(usize::from(*head)..INLINE, 0);
                    *len -= *head;
                    *head = 0;
                }
                if (usize::from(*len)) < INLINE {
                    tags[usize::from(*len)] = tag;
                    *len += 1;
                } else {
                    // Inline capacity genuinely exhausted: spill.
                    let mut spilled = Vec::with_capacity(INLINE + INLINE / 2);
                    spilled.extend_from_slice(&tags[..INLINE]);
                    spilled.push(tag);
                    self.repr = Repr::Spill {
                        tags: spilled,
                        head: 0,
                    };
                }
            }
            Repr::Spill { tags, .. } => tags.push(tag),
        }
        Ok(self)
    }

    /// Concatenates two paths (used by the L3 router's cross-subnet
    /// shortcut, §6.3).
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::PathTooLong`] if the combined path exceeds
    /// [`Path::MAX_LEN`].
    pub fn concat(&self, other: &Path) -> Result<Path, DumbNetError> {
        let total = self.len() + other.len();
        if total > MAX {
            return Err(DumbNetError::PathTooLong(total));
        }
        if total <= INLINE {
            let mut buf = [Tag(0); INLINE];
            buf[..self.len()].copy_from_slice(self.tags());
            buf[self.len()..total].copy_from_slice(other.tags());
            Ok(Path {
                repr: Repr::Inline {
                    tags: buf,
                    len: total as u8,
                    head: 0,
                },
            })
        } else {
            let mut joined = Vec::with_capacity(total);
            joined.extend_from_slice(self.tags());
            joined.extend_from_slice(other.tags());
            Ok(Path {
                repr: Repr::Spill {
                    tags: joined,
                    head: 0,
                },
            })
        }
    }

    /// Serializes the (remaining) path for the wire: the tags followed
    /// by ø.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len() + 1);
        bytes.extend(self.tags().iter().map(|t| t.byte()));
        bytes.push(Tag::END.byte());
        bytes
    }

    /// Parses a wire tag sequence (tags terminated by ø).
    ///
    /// The scan is bounded: a terminator that does not appear within the
    /// first [`Path::MAX_LEN`]` + 1` bytes is treated as missing, so a
    /// corrupted length field cannot make the parser walk an entire
    /// jumbo payload.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::MissingEndMarker`] if no ø terminator is
    /// found within [`Path::MAX_LEN`]` + 1` bytes,
    /// [`DumbNetError::PathTooLong`] when the tag list is oversized, and
    /// [`DumbNetError::InvalidTagInPath`] is unreachable here because
    /// every pre-terminator byte is by construction not ø.
    pub fn from_wire(bytes: &[u8]) -> Result<(Path, usize), DumbNetError> {
        let window = &bytes[..bytes.len().min(MAX + 1)];
        let end = window
            .iter()
            .position(|&b| b == Tag::END.byte())
            .ok_or(DumbNetError::MissingEndMarker)?;
        let path = Path::from_tags(bytes[..end].iter().map(|&b| Tag(b)))?;
        Ok((path, end + 1))
    }
}

/// Equality covers the remaining view only: a path that was popped twice
/// equals a freshly built path of the same remaining tags, regardless of
/// which representation either uses.
impl PartialEq for Path {
    fn eq(&self, other: &Path) -> bool {
        self.tags() == other.tags()
    }
}

impl Eq for Path {}

impl std::hash::Hash for Path {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.tags().hash(state);
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Path").field("tags", &self.tags()).finish()
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in self.tags() {
            write!(f, "{t}-")?;
        }
        write!(f, "ø")
    }
}

impl std::ops::Index<usize> for Path {
    type Output = Tag;

    fn index(&self, ix: usize) -> &Tag {
        &self.tags()[ix]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_stays_pointer_sized_times_four() {
        // A Path rides inside every packet, and every packet is copied
        // through the event queue's slab twice per hop: its size is a
        // simulator-wide memcpy multiplier. Catch accidental growth.
        assert!(
            std::mem::size_of::<Path>() <= 32,
            "Path grew to {} bytes",
            std::mem::size_of::<Path>()
        );
    }

    #[test]
    fn wire_round_trip() {
        let p = Path::from_ports([2, 3, 5]).unwrap();
        let wire = p.to_wire();
        assert_eq!(wire, vec![2, 3, 5, 0xFF]);
        let (parsed, used) = Path::from_wire(&wire).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(used, 4);
    }

    #[test]
    fn wire_parse_with_trailing_payload() {
        let mut wire = Path::from_ports([9]).unwrap().to_wire();
        wire.extend_from_slice(&[0xAA, 0xBB]);
        let (parsed, used) = Path::from_wire(&wire).unwrap();
        assert_eq!(parsed.to_string(), "9-ø");
        assert_eq!(used, 2);
    }

    #[test]
    fn missing_end_marker_detected() {
        assert!(matches!(
            Path::from_wire(&[1, 2, 3]),
            Err(DumbNetError::MissingEndMarker)
        ));
    }

    #[test]
    fn from_wire_scan_is_bounded() {
        // Terminator present but past the legal window: the parser must
        // give up after MAX_LEN + 1 bytes, not walk the whole buffer.
        let mut wire = vec![1u8; Path::MAX_LEN + 10];
        wire.push(0xFF);
        assert!(matches!(
            Path::from_wire(&wire),
            Err(DumbNetError::MissingEndMarker)
        ));
        // Exactly MAX_LEN tags + terminator still parses.
        let mut max = vec![1u8; Path::MAX_LEN];
        max.push(0xFF);
        let (p, used) = Path::from_wire(&max).unwrap();
        assert_eq!(p.len(), Path::MAX_LEN);
        assert_eq!(used, Path::MAX_LEN + 1);
    }

    #[test]
    fn id_query_tags_allowed_in_paths() {
        // The discovery probe 0-9-ø from §4.1.
        let p = Path::from_tags([Tag::ID_QUERY, Tag(9)]).unwrap();
        assert_eq!(p.to_string(), "0-9-ø");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn end_marker_rejected_inside_path() {
        assert!(Path::from_tags([Tag(1), Tag::END]).is_err());
        assert!(Path::empty().push(Tag::END).is_err());
    }

    #[test]
    fn length_limit_enforced() {
        let long: Vec<u8> = std::iter::repeat_n(1, Path::MAX_LEN).collect();
        let p = Path::from_ports(long.clone()).unwrap();
        assert_eq!(p.len(), Path::MAX_LEN);
        let too_long: Vec<u8> = std::iter::repeat_n(1, Path::MAX_LEN + 1).collect();
        assert!(Path::from_ports(too_long).is_err());
        assert!(p.push(Tag(1)).is_err());
    }

    #[test]
    fn oversize_error_reports_full_supplied_length() {
        let n = Path::MAX_LEN + 7;
        match Path::from_ports(std::iter::repeat_n(1, n)) {
            Err(DumbNetError::PathTooLong(got)) => assert_eq!(got, n),
            other => panic!("expected PathTooLong, got {other:?}"),
        }
    }

    #[test]
    fn invalid_port_beats_length_in_from_ports() {
        // A bad port value early in an oversized list reports the port
        // error, mirroring the item-by-item validation order.
        assert!(matches!(
            Path::from_ports([1, 0, 2]),
            Err(DumbNetError::InvalidPort(0))
        ));
    }

    #[test]
    fn concat_appends() {
        let a = Path::from_ports([1, 2]).unwrap();
        let b = Path::from_ports([3]).unwrap();
        assert_eq!(a.concat(&b).unwrap().to_string(), "1-2-3-ø");
    }

    #[test]
    fn split_first_consumes_head() {
        let p = Path::from_ports([4, 7]).unwrap();
        let (head, rest) = p.split_first().unwrap();
        assert_eq!(head, Tag(4));
        let (head2, rest2) = rest.split_first().unwrap();
        assert_eq!(head2, Tag(7));
        assert!(rest2.split_first().is_none());
    }

    #[test]
    fn pop_front_view_matches_fresh_path() {
        let mut p = Path::from_ports([2, 3, 5]).unwrap();
        assert_eq!(p.pop_front(), Some(Tag(2)));
        let fresh = Path::from_ports([3, 5]).unwrap();
        // Every observable view must agree with a freshly built path.
        assert_eq!(p, fresh);
        assert_eq!(p.len(), fresh.len());
        assert_eq!(p.to_string(), fresh.to_string());
        assert_eq!(p.to_wire(), fresh.to_wire());
        assert_eq!(p.tags(), fresh.tags());
        assert_eq!(p[0], fresh[0]);
        let hash = |path: &Path| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            path.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&p), hash(&fresh));
        assert_eq!(p.pop_front(), Some(Tag(3)));
        assert_eq!(p.pop_front(), Some(Tag(5)));
        assert_eq!(p.pop_front(), None);
        assert!(p.is_empty());
        assert_eq!(p, Path::empty());
    }

    #[test]
    fn push_and_concat_after_pop_respect_view() {
        let mut p = Path::from_ports([1, 2, 3]).unwrap();
        p.pop_front();
        let extended = p.clone().push(Tag(9)).unwrap();
        assert_eq!(extended.to_string(), "2-3-9-ø");
        let joined = p.concat(&Path::from_ports([8]).unwrap()).unwrap();
        assert_eq!(joined.to_string(), "2-3-8-ø");
    }

    #[test]
    fn push_compacts_a_popped_full_buffer() {
        // Fill to capacity, consume a tag, then push: the remaining view
        // is MAX_LEN - 1 long, so the push must succeed even though the
        // physical buffer was full.
        let mut p = Path::from_ports(std::iter::repeat_n(1, Path::MAX_LEN)).unwrap();
        assert!(p.pop_front().is_some());
        let p = p.push(Tag(9)).unwrap();
        assert_eq!(p.len(), Path::MAX_LEN);
        assert_eq!(p[Path::MAX_LEN - 1], Tag(9));
    }

    #[test]
    fn spilled_and_inline_paths_are_indistinguishable() {
        // Build past the inline buffer, then pop back down to a short
        // remaining view: it must equal (and hash like) a fresh inline
        // path of the same tags.
        let long: Vec<u8> = (0..40u8).map(|i| 1 + (i % 200)).collect();
        let mut spilled = Path::from_ports(long.clone()).unwrap();
        for _ in 0..38 {
            spilled.pop_front();
        }
        let fresh = Path::from_ports(long[38..].iter().copied()).unwrap();
        assert_eq!(spilled, fresh);
        assert_eq!(spilled.len(), 2);
        assert_eq!(spilled.to_string(), fresh.to_string());
        let hash = |path: &Path| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            path.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&spilled), hash(&fresh));
    }

    #[test]
    fn push_promotes_across_the_inline_boundary() {
        // Grow one tag at a time through the spill threshold: every
        // intermediate view must match the equivalent from_ports path.
        let mut p = Path::empty();
        for i in 0..Path::MAX_LEN {
            p = p.push(Tag(1 + (i % 200) as u8)).unwrap();
            let want: Vec<u8> = (0..=i).map(|j| 1 + (j % 200) as u8).collect();
            assert_eq!(p, Path::from_ports(want).unwrap(), "at length {}", i + 1);
        }
        assert!(p.push(Tag(9)).is_err());
    }

    #[test]
    fn long_path_pops_through_the_spill() {
        let ports: Vec<u8> = (0..Path::MAX_LEN as u8).map(|i| 1 + i).collect();
        let mut p = Path::from_ports(ports.clone()).unwrap();
        for (i, &want) in ports.iter().enumerate() {
            assert_eq!(p.len(), Path::MAX_LEN - i);
            assert_eq!(p.pop_front(), Some(Tag(want)));
        }
        assert_eq!(p.pop_front(), None);
        assert!(p.is_empty());
    }
}
