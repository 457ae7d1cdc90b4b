//! Iterative traversal utilities.
//!
//! Everything here is stack-explicit: assembly trees can be 10⁵ deep, so
//! recursion is banned throughout the workspace.

use crate::node::NodeId;
use crate::tree::TaskTree;

/// Iterative postorder traversal (children before parents).
///
/// Children are visited in id order by default; see
/// [`postorder_with_child_order`] for custom child priorities.
pub struct PostorderIter<'a> {
    tree: &'a TaskTree,
    /// Stack of (node, next child rank to expand).
    stack: Vec<(NodeId, u32)>,
}

impl<'a> PostorderIter<'a> {
    /// Postorder over the whole tree.
    pub fn new(tree: &'a TaskTree) -> Self {
        Self::rooted(tree, tree.root())
    }

    /// Postorder over the subtree rooted at `root`.
    pub fn rooted(tree: &'a TaskTree, root: NodeId) -> Self {
        PostorderIter {
            tree,
            stack: vec![(root, 0)],
        }
    }
}

impl Iterator for PostorderIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let &(node, next_child) = self.stack.last()?;
            let children = self.tree.children(node);
            if (next_child as usize) < children.len() {
                self.stack.last_mut().unwrap().1 += 1;
                self.stack.push((children[next_child as usize], 0));
            } else {
                self.stack.pop();
                return Some(node);
            }
        }
    }
}

/// Breadth-first traversal from the root.
pub struct BfsIter<'a> {
    tree: &'a TaskTree,
    queue: std::collections::VecDeque<NodeId>,
}

impl<'a> BfsIter<'a> {
    /// BFS over the whole tree.
    pub fn new(tree: &'a TaskTree) -> Self {
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(tree.root());
        BfsIter { tree, queue }
    }
}

impl Iterator for BfsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.queue.pop_front()?;
        self.queue.extend(self.tree.children(node).iter().copied());
        Some(node)
    }
}

/// Postorder of the whole tree as a vector (children in id order).
pub fn postorder(tree: &TaskTree) -> Vec<NodeId> {
    PostorderIter::new(tree).collect()
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

/// Postorder that expands the children of `i` in the order
/// `child_order[tree.child_range(i)]` lists them. `child_order` must hold
/// every child list, each permuted in place.
///
/// One stack of `(node, next slot)` pairs: no allocation per node.
pub fn postorder_over(tree: &TaskTree, child_order: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(
        child_order.len(),
        tree.children.len(),
        "one slot per edge required"
    );
    let mut out = Vec::with_capacity(tree.len());
    let mut stack = vec![(tree.root(), tree.child_range(tree.root()).start)];
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        if *next < tree.child_range(node).end {
            let c = child_order[*next];
            *next += 1;
            stack.push((c, tree.child_range(c).start));
        } else {
            out.push(node);
            stack.pop();
        }
    }
    out
}

/// Postorder where, at every node, children are expanded in the order given
/// by `child_rank`: smaller rank is visited first.
///
/// This is the workhorse behind the postorder-based activation orders
/// (perfPO, avgMemPO; memPO feeds [`postorder_over`] the child order its
/// peak computation already sorted): each of them is "a postorder with a
/// specific child priority".
pub fn postorder_with_child_order(tree: &TaskTree, child_rank: &[u64]) -> Vec<NodeId> {
    postorder_over(tree, &children_sorted_by_rank(tree, child_rank))
}

/// Depth of every node (root has depth 0).
pub fn depths(tree: &TaskTree) -> Vec<u32> {
    let mut d = vec![0u32; tree.len()];
    for i in BfsIter::new(tree) {
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
            let sub: Vec<usize> = PostorderIter::rooted(&t, i)
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
        let bfs: Vec<_> = BfsIter::new(&t).collect();
        assert_eq!(
            bfs,
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
