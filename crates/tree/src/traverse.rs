//! Traversal utilities.
//!
//! Bottom-up and top-down passes sweep [`TaskTree::children_first`]: on
//! every tree this repository builds the ids are already topological, so
//! that is `0..n` or its reverse and a pass walks its arrays front to back
//! (DESIGN.md §3). Postorders are *placed*, not walked: subtree sizes from
//! one children-first sweep, then every node's position from one top-down
//! sweep. Nothing here recurses or keeps a stack of the tree's height:
//! assembly trees can be 10⁵ deep.

use crate::node::NodeId;
use crate::tree::{TaskTree, NO_PARENT};

/// The sequence [`TaskTree::children_first`] returns: every node once,
/// each child before its parent. Double-ended, so `.rev()` is a top-down
/// pass; cloning an id range is free.
#[derive(Clone, Debug)]
pub struct ChildrenFirst(Sweep);

#[derive(Clone, Debug)]
enum Sweep {
    /// Ids ascending: every parent id is above its children's.
    Up(std::ops::Range<u32>),
    /// Ids descending: every parent id is below its children's.
    Down(std::ops::Range<u32>),
    /// Neither: a reversed breadth-first order.
    Listed(std::vec::IntoIter<NodeId>),
}

/// [`TaskTree::children_first`]: the id direction, read off the parent
/// array in one linear pass, or a reversed breadth-first order.
pub(crate) fn children_first(tree: &TaskTree) -> ChildrenFirst {
    let ids = 0..tree.len() as u32;
    let parents_all = |above: bool| {
        tree.parent
            .iter()
            .zip(ids.clone())
            .all(|(&p, i)| p == NO_PARENT || (p > i) == above)
    };
    ChildrenFirst(if parents_all(true) {
        Sweep::Up(ids)
    } else if parents_all(false) {
        Sweep::Down(ids)
    } else {
        let mut seq = breadth_first(tree);
        seq.reverse();
        Sweep::Listed(seq.into_iter())
    })
}

impl Iterator for ChildrenFirst {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match &mut self.0 {
            Sweep::Up(ids) => ids.next().map(NodeId),
            Sweep::Down(ids) => ids.next_back().map(NodeId),
            Sweep::Listed(seq) => seq.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Sweep::Up(ids) | Sweep::Down(ids) => ids.size_hint(),
            Sweep::Listed(seq) => seq.size_hint(),
        }
    }
}

impl DoubleEndedIterator for ChildrenFirst {
    #[inline]
    fn next_back(&mut self) -> Option<NodeId> {
        match &mut self.0 {
            Sweep::Up(ids) => ids.next_back().map(NodeId),
            Sweep::Down(ids) => ids.next().map(NodeId),
            Sweep::Listed(seq) => seq.next_back(),
        }
    }
}

impl ExactSizeIterator for ChildrenFirst {}

/// The nodes reachable from the root in breadth-first order, children in
/// id order: a plain `Vec` used as its own queue.
pub(crate) fn breadth_first(tree: &TaskTree) -> Vec<NodeId> {
    let mut seq = Vec::with_capacity(tree.len());
    seq.push(tree.root());
    let mut next = 0;
    while let Some(&i) = seq.get(next) {
        seq.extend_from_slice(tree.children(i));
        next += 1;
    }
    seq
}

/// Postorder of the whole tree as a vector (children in id order).
pub fn postorder(tree: &TaskTree) -> Vec<NodeId> {
    sequence_of(&postorder_ranks(tree, &tree.children))
}

/// Every child list sorted by `child_rank` (smaller first), in one array
/// aligned with the tree's own: the sorted children of `i` occupy
/// [`TaskTree::child_range`]`(i)`.
///
/// Stable sort: equal ranks keep id order, so traversals over the result
/// are deterministic.
fn children_sorted_by_rank(tree: &TaskTree, child_rank: &[u64]) -> Vec<NodeId> {
    assert_eq!(child_rank.len(), tree.len(), "one rank per node required");
    let mut sorted = tree.children.clone();
    for i in tree.nodes() {
        sorted[tree.child_range(i)].sort_by_key(|c| child_rank[c.index()]);
    }
    sorted
}

/// The position of every node in the postorder that expands the children
/// of `i` in the order `child_order[tree.child_range(i)]` lists them.
/// `child_order` must hold every child list, each permuted in place.
///
/// Placed, not walked. In a postorder the subtree of `i` fills the
/// `size(i)` positions ending at `i`'s own, and its children's subtrees
/// tile the positions below `i`, the last child's ending right below it.
/// So one children-first sweep counts subtree sizes, and one top-down
/// sweep hands each child the position its block ends at, overwriting the
/// child's size: one `n`-sized array, no stack.
pub fn postorder_ranks(tree: &TaskTree, child_order: &[NodeId]) -> Vec<u32> {
    assert_eq!(
        child_order.len(),
        tree.children.len(),
        "one slot per edge required"
    );
    let sweep = tree.children_first();
    let mut slot = vec![1u32; tree.len()];
    for i in sweep.clone() {
        if let Some(p) = tree.parent(i) {
            slot[p.index()] += slot[i.index()];
        }
    }
    slot[tree.root().index()] = tree.len() as u32 - 1;
    for i in sweep.rev() {
        let mut end = slot[i.index()];
        for &c in child_order[tree.child_range(i)].iter().rev() {
            let size = slot[c.index()];
            slot[c.index()] = end - 1;
            end -= size;
        }
    }
    slot
}

/// The sequence a permutation's ranks describe: `seq[rank[i]] = i`.
fn sequence_of(rank: &[u32]) -> Vec<NodeId> {
    let mut seq = vec![NodeId(0); rank.len()];
    for (i, &r) in rank.iter().enumerate() {
        seq[r as usize] = NodeId::from_index(i);
    }
    seq
}

/// Postorder where, at every node, children are expanded in the order
/// given by `child_rank`: smaller rank is visited first.
///
/// This is the workhorse behind the postorder-based activation orders
/// (perfPO, avgMemPO; memPO feeds [`postorder_ranks`] the child order its
/// peak computation already sorted): each of them is "a postorder with a
/// specific child priority".
pub fn postorder_with_child_order(tree: &TaskTree, child_rank: &[u64]) -> Vec<NodeId> {
    sequence_of(&postorder_ranks(
        tree,
        &children_sorted_by_rank(tree, child_rank),
    ))
}

/// Depth of every node (root has depth 0): one top-down sweep.
pub fn depths(tree: &TaskTree) -> Vec<u32> {
    let mut d = vec![0u32; tree.len()];
    for i in tree.children_first().rev() {
        if let Some(p) = tree.parent(i) {
            d[i.index()] = d[p.index()] + 1;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TaskSpec;

    fn bushy() -> TaskTree {
        // 0 root; children 1, 2; 1 has children 3, 4; 2 has child 5.
        TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1), Some(1), Some(2)],
            &[TaskSpec::default(); 6],
        )
        .unwrap()
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = bushy();
        let po = postorder(&t);
        assert_eq!(po.len(), t.len());
        t.check_topological(&po).unwrap();
        assert_eq!(*po.last().unwrap(), t.root());
        assert_eq!(
            po,
            vec![
                NodeId(3),
                NodeId(4),
                NodeId(1),
                NodeId(5),
                NodeId(2),
                NodeId(0)
            ]
        );
    }

    #[test]
    fn postorder_is_contiguous_per_subtree() {
        // A postorder must list each subtree as a contiguous block.
        let t = bushy();
        let po = postorder(&t);
        let pos: Vec<usize> = {
            let mut p = vec![0; t.len()];
            for (k, &n) in po.iter().enumerate() {
                p[n.index()] = k;
            }
            p
        };
        for i in t.nodes() {
            let sub: Vec<usize> = t
                .nodes()
                .filter(|&n| n == i || t.is_ancestor(i, n))
                .map(|n| pos[n.index()])
                .collect();
            let min = *sub.iter().min().unwrap();
            let max = *sub.iter().max().unwrap();
            assert_eq!(max - min + 1, sub.len(), "subtree of {i:?} not contiguous");
        }
    }

    #[test]
    fn bfs_visits_by_level() {
        let t = bushy();
        assert_eq!(
            breadth_first(&t),
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                NodeId(5)
            ]
        );
    }

    #[test]
    fn children_first_follows_the_id_direction() {
        // Parents below children: the reversed id range.
        let down = bushy();
        assert!(down.children_first().eq(down.nodes().rev()));
        // Renumbered along its postorder: parents above, the id range.
        let up = down.renumbered(postorder(&down)).unwrap();
        assert!(up.children_first().eq(up.nodes()));
        assert!(up.children_first().rev().eq(up.nodes().rev()));
        // Mixed: node 1 hangs under 4 (parent above), the rest under 0
        // (parent below) — the reversed breadth-first order.
        let mixed = TaskTree::from_parents(
            &[None, Some(4), Some(0), Some(0), Some(0), Some(0)],
            &[TaskSpec::default(); 6],
        )
        .unwrap();
        let seq: Vec<NodeId> = mixed.children_first().collect();
        assert_eq!(
            seq,
            [1, 5, 4, 3, 2, 0].map(NodeId).to_vec(),
            "reversed breadth-first order"
        );
        assert_eq!(mixed.children_first().len(), 6);
        for t in [&down, &up, &mixed] {
            let seq: Vec<NodeId> = t.children_first().collect();
            t.check_topological(&seq).unwrap();
        }
    }

    #[test]
    fn custom_child_order_respected() {
        let t = bushy();
        // Make node 2's subtree come before node 1's.
        let mut rank = vec![0u64; t.len()];
        rank[1] = 10;
        rank[2] = 5;
        let po = postorder_with_child_order(&t, &rank);
        t.check_topological(&po).unwrap();
        assert_eq!(
            po,
            vec![
                NodeId(5),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                NodeId(1),
                NodeId(0)
            ]
        );
    }

    #[test]
    fn depths_computed() {
        let t = bushy();
        assert_eq!(depths(&t), vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn deep_tree_traversal_is_iterative() {
        let n = 150_000;
        let parents: Vec<Option<usize>> =
            std::iter::once(None).chain((0..n - 1).map(Some)).collect();
        let t = TaskTree::from_parents(&parents, &vec![TaskSpec::default(); n]).unwrap();
        assert_eq!(postorder(&t).len(), n);
        assert_eq!(depths(&t)[n - 1], (n - 1) as u32);
    }
}
