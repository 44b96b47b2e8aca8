//! Heap bytes by capacity, for the engine's heap census.
//!
//! Each function returns what one collection's buffer holds on the heap,
//! computed from its capacity and element layout, never from its length:
//! a half-empty vector still owns its whole buffer. Nested heap (a
//! `Vec<Vec<T>>`'s inner buffers) is the caller's to add. The hash-table
//! sizes follow the standard library's table layout and are exact; a
//! B-tree does not expose its node count, so [`btree_map`] estimates it.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::mem::size_of;

/// A `Vec`'s buffer.
#[must_use]
pub fn vec<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// A boxed slice's buffer (its length is its capacity).
#[must_use]
pub fn slice<T>(s: &[T]) -> usize {
    std::mem::size_of_val(s)
}

/// An `Arc<T>`'s allocation: the two reference counts and the value.
#[must_use]
pub fn arc<T>() -> usize {
    2 * size_of::<usize>() + size_of::<T>()
}

/// A `VecDeque`'s ring buffer.
#[must_use]
pub fn deque<T>(v: &VecDeque<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// A `HashMap`'s table: slots, control bytes and the trailing group.
#[must_use]
pub fn hash_map<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    table(m.capacity(), size_of::<(K, V)>())
}

/// A `HashSet`'s table.
#[must_use]
pub fn hash_set<T, S>(s: &HashSet<T, S>) -> usize {
    table(s.capacity(), size_of::<T>())
}

/// The swiss table behind `capacity` usable slots of `slot` bytes: a
/// power-of-two bucket count (⅞ usable from 8 buckets up), the slots
/// padded to 16, one control byte per bucket plus one 16-byte group.
fn table(capacity: usize, slot: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    (slot * buckets).next_multiple_of(16) + buckets + 16
}

/// Entries per B-tree node: the standard library's `2B - 1` with `B = 6`.
const BTREE_CAPACITY: usize = 11;

/// Estimated nodes of a `BTreeMap`: leaves filled to 7 of 11 entries
/// (what ascending inserts leave behind), and one internal node, with
/// its 12 child pointers, per 7 nodes below it.
#[must_use]
pub fn btree_map<K, V>(m: &BTreeMap<K, V>) -> usize {
    btree(m.len(), size_of::<K>(), size_of::<V>())
}

/// Estimated nodes of a `BTreeSet` (a map with unit values).
#[must_use]
pub fn btree_set<T>(s: &BTreeSet<T>) -> usize {
    btree(s.len(), size_of::<T>(), 0)
}

fn btree(len: usize, key: usize, val: usize) -> usize {
    if len == 0 {
        return 0;
    }
    // Parent pointer, parent index and length, then the key and value
    // arrays, padded to the pointer alignment.
    let leaf = (8 + 4 + BTREE_CAPACITY * (key + val)).next_multiple_of(8);
    let internal = leaf + (BTREE_CAPACITY + 1) * 8;
    let leaves = len.div_ceil(7);
    let mut internals = 0;
    let mut level = leaves;
    while level > 1 {
        level = level.div_ceil(7);
        internals += level;
    }
    leaves * leaf + internals * internal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_counts_capacity_not_length() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec(&v), 80);
        assert_eq!(slice(&[0u32; 5][..]), 20);
    }

    /// The table size of a few capacities, against the layout the
    /// standard library allocates: 4 buckets hold 3, 8 hold 7, 16 hold 14.
    #[test]
    fn hash_tables_follow_the_bucket_layout() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        assert_eq!(hash_map(&m), 0);
        m.insert(1, 1);
        assert_eq!(m.capacity(), 3);
        assert_eq!(hash_map(&m), 64 + 4 + 16);
        m.extend((2..=8).map(|k| (k, k)));
        assert_eq!(m.capacity(), 14);
        assert_eq!(hash_map(&m), 256 + 16 + 16);
    }

    #[test]
    fn btree_estimate_grows_with_length() {
        let small: BTreeSet<u64> = (0..5).collect();
        let big: BTreeSet<u64> = (0..5_000).collect();
        assert_eq!(btree_set(&small), 8 + 4 + 88 + 4);
        assert!(btree_set(&big) > 5_000 * 8);
    }
}
