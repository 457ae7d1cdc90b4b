//! Canonical content hashing of task trees.
//!
//! [`content_hash`] digests everything that defines a tree as a scheduling
//! problem — the parent array plus every task's `(n_i, f_i, t_i)` — into a
//! stable 64-bit value. Two trees hash equal iff they are equal as
//! [`TaskTree`] values (the CSR children arrays are derived from the
//! parents, so the parent array is the canonical structure; the labels of
//! a [renumbered](TaskTree::renumbered) tree name its nodes for a caller,
//! they are not part of the problem and are not hashed). The hash is
//! the key ingredient of sweep-level caching: a persisted experiment cell
//! is addressed by the tree's content, not by its name or its position in
//! a corpus, so renaming or reordering a corpus never invalidates results
//! while any structural or size change does.
//!
//! The digest is FNV-1a, fixed here byte for byte (not `DefaultHasher`,
//! whose output may change across Rust releases) so hashes are stable
//! across processes, platforms and compiler versions — cache files written
//! by one build stay valid for the next.

use crate::tree::TaskTree;

/// Incremental FNV-1a 64-bit hasher with a stable byte-level definition.
///
/// Deliberately *not* `std::hash::Hasher`: callers feed typed values
/// through the explicit `write_*` methods so the byte stream (and hence
/// the digest) is pinned by this module, independent of `Hash` impls.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher seeded with a domain-separation tag, so independent key
    /// spaces (tree hashes, spec fingerprints, cell keys) cannot collide
    /// by construction.
    pub fn with_tag(tag: &str) -> Self {
        let mut h = Fnv64::new();
        h.write_bytes(tag.as_bytes());
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32` (little-endian bytes).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` through its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a length-prefixed string (prefix avoids concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// The canonical content hash of `tree`; see the module docs.
pub fn content_hash(tree: &TaskTree) -> u64 {
    let mut h = Fnv64::with_tag("memtree-tree-v1");
    h.write_u64(tree.len() as u64);
    for i in tree.nodes() {
        // u32::MAX is the root sentinel (no node index reaches it: CSR
        // offsets are u32 too).
        h.write_u32(tree.parent(i).map_or(u32::MAX, |p| p.index() as u32));
        h.write_u64(tree.exec(i));
        h.write_u64(tree.output(i));
        h.write_f64(tree.time(i));
    }
    h.finish()
}

impl TaskTree {
    /// The canonical content hash of this tree (see [`content_hash`]).
    pub fn content_hash(&self) -> u64 {
        content_hash(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TaskSpec;

    fn tree(specs: &[(Option<usize>, u64, u64, f64)]) -> TaskTree {
        let parents: Vec<Option<usize>> = specs.iter().map(|s| s.0).collect();
        let tasks: Vec<TaskSpec> = specs
            .iter()
            .map(|&(_, n, f, t)| TaskSpec::new(n, f, t))
            .collect();
        TaskTree::from_parents(&parents, &tasks).unwrap()
    }

    #[test]
    fn equal_trees_hash_equal() {
        let a = tree(&[(None, 1, 10, 1.0), (Some(0), 2, 20, 2.0)]);
        let b = tree(&[(None, 1, 10, 1.0), (Some(0), 2, 20, 2.0)]);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn any_field_changes_the_hash() {
        let base = tree(&[(None, 1, 10, 1.0), (Some(0), 2, 20, 2.0)]);
        let variants = [
            tree(&[(None, 1, 10, 1.0), (Some(0), 3, 20, 2.0)]), // exec
            tree(&[(None, 1, 10, 1.0), (Some(0), 2, 21, 2.0)]), // output
            tree(&[(None, 1, 10, 1.0), (Some(0), 2, 20, 2.5)]), // time
            tree(&[
                // structure
                (None, 1, 10, 1.0),
                (Some(0), 2, 20, 2.0),
                (Some(0), 2, 20, 2.0),
            ]),
        ];
        for v in &variants {
            assert_ne!(base.content_hash(), v.content_hash());
        }
    }

    #[test]
    fn structure_not_just_multiset_of_specs() {
        // Same node specs, different parent wiring.
        let chain = tree(&[
            (None, 1, 1, 1.0),
            (Some(0), 1, 1, 1.0),
            (Some(1), 1, 1, 1.0),
        ]);
        let star = tree(&[
            (None, 1, 1, 1.0),
            (Some(0), 1, 1, 1.0),
            (Some(0), 1, 1, 1.0),
        ]);
        assert_ne!(chain.content_hash(), star.content_hash());
    }

    #[test]
    fn digest_is_pinned() {
        // Guards the byte-level definition: a change here silently
        // invalidates every cache ever written, so it must be deliberate.
        let t = tree(&[(None, 1, 10, 1.0), (Some(0), 2, 20, 2.0)]);
        assert_eq!(t.content_hash(), t.content_hash());
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c, "FNV-1a(\"a\") reference");
    }

    #[test]
    fn tag_separates_domains() {
        let mut a = Fnv64::with_tag("domain-a");
        let mut b = Fnv64::with_tag("domain-b");
        a.write_u64(7);
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }
}
